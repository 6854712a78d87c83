package fuzzing

// SeedCorpus returns the seed inputs for a fuzz target. They are added
// both in code (f.Add in fuzz_test.go) and as checked-in corpus files
// under testdata/fuzz/<Target>/ — TestSeedCorpusFilesMatch pins the two
// representations to each other.
func SeedCorpus(target string) [][]byte {
	switch target {
	case "FuzzSchedule":
		return [][]byte{
			[]byte(""),                        // empty schedule: warm-up traffic only
			[]byte("senss differential"),      // mixed ops over a few lines
			[]byte("AAAAAAAAAAAAAAAAAAAAAAA"), // one proc hammering one line
			[]byte("\x00\x01\x05\x02\x09\x03\x0d\x01\x11\x02\x15\x03\x19\x01\x1d"), // all procs, spread lines
		}
	case "FuzzAdversary":
		return [][]byte{
			[]byte(""),                     // clean run, no steps
			[]byte("\x10\x03\x00\x01\x07"), // drop one message to one victim
			[]byte("\x18\x02\x02\x02\x00\x05\x01\x03\x21"),                 // reorder + corrupt
			[]byte("\x20\x04\x04\x01\x02\x04\x03\x01\x02\x06\x03\x02\x55"), // spoof + replay mix
		}
	case "FuzzConfig":
		return [][]byte{
			[]byte(""),                         // default shape
			[]byte("\x03\x01\x02\x04\x01\x07"), // 4 procs, gf mode
			[]byte("\x07\x03\x03\x00\x06\x2a"), // 8 procs, adaptive+perfect
			[]byte("\x00\x00\x00\x00\x00\x00"), // 1 proc, no c2c at all
			[]byte("\x03\x01\x02\x04\x08\x07"), // 4 procs, naive baseline
		}
	}
	return nil
}
