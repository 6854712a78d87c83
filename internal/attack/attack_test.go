package attack

import (
	"testing"

	"senss/internal/core"
)

// TestAllScenariosMatchPaperPredictions runs every canned attack and
// requires the outcome the paper argues for: SENSS detects the real
// attacks through the check each one exercises, and the strawman
// demonstrations show their documented flaws.
func TestAllScenariosMatchPaperPredictions(t *testing.T) {
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			rep := sc.Run(12345)
			if !rep.Attacked {
				t.Fatalf("%s never attacked", sc.Name)
			}
			if !rep.OK() {
				t.Errorf("%s: detected=%v want=%v (%s)\ndetails: %v",
					sc.Name, rep.Detected, rep.WantDetect, rep.Verdict(), rep.Details)
			}
			if rep.Fired != sc.Check {
				t.Errorf("%s: caught by the %s, want the %s\ndetails: %v", sc.Name, rep.Fired, sc.Check, rep.Details)
			}
		})
	}
}

// TestScenariosAreSeedRobust re-runs everything under different seeds.
func TestScenariosAreSeedRobust(t *testing.T) {
	for _, seed := range []uint64{1, 7, 999, 2025} {
		for _, sc := range Scenarios() {
			rep := sc.Run(seed)
			if !rep.Attacked || !rep.OK() || rep.Fired != sc.Check {
				t.Errorf("seed %d, %s: attacked=%v detected=%v want=%v, caught by the %s, want the %s",
					seed, sc.Name, rep.Attacked, rep.Detected, rep.WantDetect, rep.Fired, sc.Check)
			}
		}
	}
}

// TestScriptDropSkipsSender: a drop aimed at the sender of its broadcast
// lands on the next broadcast the victim receives, as on a real bus where
// a processor never snoops its own message.
func TestScriptDropSkipsSender(t *testing.T) {
	rig := NewRig(3, core.DefaultParams(), nil)
	script := core.NewScript(RigProcs, []core.Step{{Seq: 2, Action: core.ActDrop, Victim: 2}})
	rig.Sys.SetTamperer(script)
	rig.Drive(4)
	if seq, ok := script.Landed(); !ok || seq != 3 {
		t.Fatalf("drop for the sender of broadcast 2 landed at %d (landed=%v), want broadcast 3", seq, ok)
	}
	if !script.Deviated() {
		t.Error("landed drop not counted as a deviation")
	}
}

func TestReportVerdictStrings(t *testing.T) {
	cases := []struct {
		rep  Report
		want string
	}{
		{Report{Detected: true, WantDetect: true}, "DETECTED (as designed)"},
		{Report{Detected: false, WantDetect: false}, "UNDETECTED (the strawman's flaw, as the paper argues)"},
		{Report{Detected: false, WantDetect: true}, "MISSED — SENSS should have caught this"},
		{Report{Detected: true, WantDetect: false}, "UNEXPECTED DETECTION"},
	}
	for _, c := range cases {
		if got := c.rep.Verdict(); got != c.want {
			t.Errorf("Verdict() = %q, want %q", got, c.want)
		}
	}
}
