package main

// Example runs the program and pins its output: the run is deterministic,
// so any change in what it prints is a change in simulated behavior.
func Example() {
	main()
	// Output:
	// workload radix, 4P: 358850 cycles unprotected, 4313 cache-to-cache transfers
	//
	// interval    slowdown %    traffic +%    auth msgs   detection latency bound
	// 100         2.499         0.583         43          ≤ 100 transfers
	// 32          2.443         1.955         134         ≤ 32 transfers
	// 10          2.961         6.764         431         ≤ 10 transfers
	// 1           7.215         67.881        4309        ≤ 1 transfers
	//
	// Interval 1 authenticates every transfer (maximum integrity); larger
	// intervals batch the check without leaving any transfer unauthenticated —
	// the chained MAC covers the whole history (paper §4.3).
}
