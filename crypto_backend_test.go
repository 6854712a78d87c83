package senss

// Cross-backend fidelity: the crypto backend is a host-software choice
// behind the crypto.BlockCipher interface, so a secured simulation must
// produce identical results — every cycle count, every bus statistic —
// whichever backend computes the AES. The differential oracle checks the
// payloads in lockstep elsewhere (TestGoldenConformance); this test pins
// the whole measurement record.

import (
	"reflect"
	"testing"

	"senss/internal/crypto"
	"senss/internal/machine"
)

func TestBackendsCycleIdentical(t *testing.T) {
	for _, mode := range []machine.SecurityMode{SecurityBus, SecurityBusMem} {
		t.Run(mode.String(), func(t *testing.T) {
			var runs []Run
			for _, backend := range crypto.Backends() {
				cfg := DefaultConfig()
				cfg.Procs = 4
				cfg.Coherence.L1Size = 4 << 10
				cfg.Coherence.L2Size = 64 << 10
				cfg.CPU.CodeBytes = 2 << 10
				cfg.Security.Mode = mode
				cfg.Security.Senss.Backend = backend
				run, err := RunWorkload("fft", SizeTest, cfg)
				if err != nil {
					t.Fatalf("backend %s: %v", backend, err)
				}
				if run.Cycles == 0 {
					t.Fatalf("backend %s: zero-cycle run; test is vacuous", backend)
				}
				runs = append(runs, run)
			}
			for i, backend := range crypto.Backends() {
				if !reflect.DeepEqual(runs[0], runs[i]) {
					t.Errorf("backend %s produced a different run record than %s:\n%+v\nvs\n%+v",
						backend, crypto.Backends()[0], runs[i], runs[0])
				}
			}
		})
	}
}
