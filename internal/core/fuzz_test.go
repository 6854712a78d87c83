package core

import (
	"testing"

	"senss/internal/crypto/aes"
	"senss/internal/rng"
)

// randomAttack draws one manipulation — drop, corrupt, spoof, or replay —
// of a random victim's view of a random broadcast. A replay first
// captures broadcast 0 for the victim; the strike is always the last
// step.
func randomAttack(r *rng.Rand, procs int) (kind string, steps []Step) {
	strike := uint64(r.Intn(10))
	victim := r.Intn(procs)
	switch r.Intn(4) {
	case 0:
		return "drop", []Step{{Seq: strike, Action: ActDrop, Victim: victim}}
	case 1:
		bit := r.Intn(BlocksPerLine * aes.BlockSize * 8)
		return "corrupt", []Step{{Seq: strike, Action: ActCorrupt, Victim: victim, Arg: bit}}
	case 2:
		claimed := r.Intn(procs)
		for claimed == victim {
			claimed = r.Intn(procs) // victim-claimed spoofs alarm instantly; test the slow path
		}
		return "spoof", []Step{{Seq: strike, Action: ActSpoof, Victim: victim, Arg: claimed}}
	default:
		return "replay", []Step{{Seq: 0, Action: ActReplay, Victim: victim}, {Seq: strike, Action: ActReplay, Victim: victim}}
	}
}

// TestRandomAdversaryDetectedWithinInterval is the paper's §4.3 guarantee
// as a property: WHATEVER single manipulation the adversary lands, the
// next authentication point — at most AuthInterval transfers later —
// catches it. 60 random attacks across both auth modes.
func TestRandomAdversaryDetectedWithinInterval(t *testing.T) {
	for _, mode := range []AuthMode{AuthCBC, AuthGF} {
		for trial := 0; trial < 30; trial++ {
			seed := uint64(5000 + trial)
			r := rng.New(seed)
			params := DefaultParams()
			params.AuthMode = mode
			params.AuthInterval = 4 + r.Intn(12)
			s, gid := newTestSystem(t, 4, params, seed)
			kind, steps := randomAttack(r, 4)
			adv := NewScript(4, steps)
			s.SetTamperer(adv)

			detectedAt := int64(-1)
			for i := 0; i < 60; i++ {
				c2c(s, gid, i%4, (i+1)%4, randomLine(r))
				if s.Detected() {
					detectedAt = int64(i)
					break
				}
			}
			landed := adv.landed[len(steps)-1]
			if landed < 0 {
				t.Fatalf("mode %v trial %d: adversary never struck", mode, trial)
			}
			if detectedAt < 0 {
				t.Fatalf("mode %v trial %d: %s at seq %d never detected (interval %d)",
					mode, trial, kind, landed, params.AuthInterval)
			}
			latency := detectedAt - landed
			if latency > int64(params.AuthInterval) {
				t.Errorf("mode %v trial %d: %s detected after %d transfers, bound %d",
					mode, trial, kind, latency, params.AuthInterval)
			}
		}
	}
}

// TestCleanTrafficNeverFalseAlarms drives long clean traffic across modes,
// mask counts, and intervals: zero alarms allowed.
func TestCleanTrafficNeverFalseAlarms(t *testing.T) {
	for _, mode := range []AuthMode{AuthCBC, AuthGF} {
		for _, masks := range []int{1, 2, 8} {
			params := DefaultParams()
			params.AuthMode = mode
			params.Masks = masks
			params.AuthInterval = 7
			s, gid := newTestSystem(t, 4, params, uint64(6000+masks))
			r := rng.New(uint64(6100 + masks))
			for i := 0; i < 300; i++ {
				c2c(s, gid, r.Intn(4), r.Intn(4), randomLine(r))
			}
			if s.Detected() {
				t.Errorf("mode %v masks %d: false alarm: %v", mode, masks, s.Stats.Detections)
			}
		}
	}
}
