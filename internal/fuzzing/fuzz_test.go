package fuzzing

import (
	"fmt"
	"os"
	"testing"
)

func addSeeds(f *testing.F, target string) {
	for _, s := range SeedCorpus(target) {
		f.Add(s)
	}
}

// FuzzSchedule fuzzes per-processor memory-access schedules against the
// lockstep differential oracle on a secured machine.
func FuzzSchedule(f *testing.F) {
	addSeeds(f, "FuzzSchedule")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := RunSchedule(data); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzAdversary fuzzes drop/corrupt/reorder/replay/spoof scripts against
// the protocol-level rig: a deviated observation stream must be detected,
// an undeviated one must leave system and oracle silent.
func FuzzAdversary(f *testing.F) {
	addSeeds(f, "FuzzAdversary")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := RunAdversary(data); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzConfig fuzzes machine shapes — procs × L2 × masks × interval ×
// mode — under the oracle on a fixed mixed workload.
func FuzzConfig(f *testing.F) {
	addSeeds(f, "FuzzConfig")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := RunConfig(data); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSeedCorpusFilesMatch pins the checked-in corpus files to
// SeedCorpus: every in-code seed must exist as a corpus file holding
// exactly the native encoding of its bytes, so `go test` replay and
// `-fuzz` minimization exercise the same inputs.
func TestSeedCorpusFilesMatch(t *testing.T) {
	for _, target := range []string{"FuzzSchedule", "FuzzAdversary", "FuzzConfig"} {
		for i, seed := range SeedCorpus(target) {
			path := "testdata/fuzz/" + target + "/seed-" + string(rune('a'+i))
			got, err := os.ReadFile(path)
			if err != nil {
				t.Errorf("%s seed %d: %v", target, i, err)
				continue
			}
			if want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed); string(got) != want {
				t.Errorf("%s seed %d: corpus file %s holds %q, want %q", target, i, path, got, want)
			}
		}
	}
}
