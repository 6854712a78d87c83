package main

// Example runs the program and pins its output: the run is deterministic,
// so any change in what it prints is a change in simulated behavior.
func Example() {
	main()
	// Output:
	// ── protocol-level scenarios ──────────────────────────────
	// ✔ pad-reuse-leak             UNDETECTED (the strawman's flaw, as the paper argues)
	// ✔ senss-no-leak              UNDETECTED (the strawman's flaw, as the paper argues)
	// ✔ type1-drop                 DETECTED (as designed)
	// ✔ type2-reorder              DETECTED (as designed)
	// ✔ type2-strawman-recovers    UNDETECTED (the strawman's flaw, as the paper argues)
	// ✔ type3-spoof-targeted       DETECTED (as designed)
	// ✔ type3-spoof-self-snoop     DETECTED (as designed)
	// ✔ replay                     DETECTED (as designed)
	// ✔ wire-corruption            DETECTED (as designed)
	//
	// ── full-machine attack: drop a broadcast mid-benchmark ──
	// machine frozen after 28022 cycles: senss: bus authentication failure: processor 2 disagrees with initiator 1 on group 0
	// (64 cache-to-cache transfers had been protected; 2 auth broadcasts)
}
