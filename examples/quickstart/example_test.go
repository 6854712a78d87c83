package main

// Example runs the program and pins its output: the run is deterministic,
// so any change in what it prints is a change in simulated behavior.
func Example() {
	main()
	// Output:
	// fft      base      81262 cycles | senss      83426 cycles | slowdown  2.663% | traffic + 0.447% | 6 auth msgs
	// radix    base     358850 cycles | senss     367818 cycles | slowdown  2.499% | traffic + 0.583% | 43 auth msgs
	// barnes   base     106232 cycles | senss     107908 cycles | slowdown  1.578% | traffic + 0.395% | 6 auth msgs
	// lu       base     123921 cycles | senss     127572 cycles | slowdown  2.946% | traffic + 1.021% | 13 auth msgs
	// ocean    base     114602 cycles | senss     116419 cycles | slowdown  1.585% | traffic + 0.286% | 5 auth msgs
	//
	// Every kernel's output is validated against a host-side reference;
	// a wrong result or a false security alarm would have failed the run.
}
