package main

// Example runs the program and pins its output: the run is deterministic,
// so any change in what it prints is a change in simulated behavior.
func Example() {
	main()
	// Output:
	// 4 tellers × 150 transfers across 32 accounts
	// final ledger total: 320000 (expected 320000) — books balance
	// simulated cycles:   156070
	// bus transfers:      4044 total, 2335 cache-to-cache (all masked+MAC-chained)
	// authentication:     72 MAC broadcasts
	// memory encryption:  10 pad msgs; integrity: 565 hash ops
	// DRAM view of account 0: 0x1d59f210ad8a6312 (plaintext value: 9423)
}
