package main

// Example runs the program and pins its output: the run is deterministic,
// so any change in what it prints is a change in simulated behavior.
func Example() {
	main()
	// Output:
	// context switches: 4 (each: quiesce → encrypt contexts → restore → retag)
	// app A streamed:   400 items (checksum ok: true)
	// app B checksums:  392448 and 523264
	// cycles: 180328, bus txns: 2206, auth broadcasts: 62
	//
	// Both groups' MAC chains survived every swap — a single corrupted
	// context blob would have halted the machine at swap-in.
}
