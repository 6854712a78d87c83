package main

// Example runs the program and pins its output: the run is deterministic,
// so any change in what it prints is a change in simulated behavior.
func Example() {
	main()
	// Output:
	// tenant A (procs 0-1, GID 0): drained 512 items — correct
	// tenant B (procs 2-3, GID 1): reduction = 131328 — correct
	// total: 208491 cycles, 3697 bus transactions, 77 MAC broadcasts
	// bus messages tagged GID 0: 3515; GID 1: 105
	// SHU isolation: proc0 sees group B members = 0x0 (must be 0); proc2 sees group A members = 0x0 (must be 0)
}
