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
				t.Errorf("%s: %s\ndetails: %v", sc.Name, rep.Verdict(), rep.Details)
			}
		})
	}
}

// TestScenariosAreSeedRobust re-runs everything under different seeds.
func TestScenariosAreSeedRobust(t *testing.T) {
	for _, seed := range []uint64{1, 7, 999, 2025} {
		for _, sc := range Scenarios() {
			rep := sc.Run(seed)
			if !rep.Attacked || !rep.OK() {
				t.Errorf("seed %d, %s: attacked=%v, %s", seed, sc.Name, rep.Attacked, rep.Verdict())
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

// TestReportVerdictStrings: a report is OK only when the check it wants
// is the one that fired — a scenario caught by the wrong check fails.
func TestReportVerdictStrings(t *testing.T) {
	cases := []struct {
		rep  Report
		ok   bool
		want string
	}{
		{Report{Fired: MACCheck, Want: MACCheck}, true, "DETECTED (as designed)"},
		{Report{Fired: SelfSnoopCheck, Want: SelfSnoopCheck}, true, "DETECTED (as designed)"},
		{Report{Fired: NoCheck, Want: NoCheck}, true, "UNDETECTED (the strawman's flaw, as the paper argues)"},
		{Report{Fired: NoCheck, Want: MACCheck}, false, "MISSED — SENSS should have caught this"},
		{Report{Fired: OtherCheck, Want: NoCheck}, false, "UNEXPECTED DETECTION"},
		{Report{Fired: SelfSnoopCheck, Want: MACCheck}, false, "caught by the self-snoop alarm, want the MAC check"},
		{Report{Fired: MACCheck, Want: SelfSnoopCheck}, false, "caught by the MAC check, want the self-snoop alarm"},
	}
	for _, c := range cases {
		if got := c.rep.OK(); got != c.ok {
			t.Errorf("%+v: OK() = %v, want %v", c.rep, got, c.ok)
		}
		if got := c.rep.Verdict(); got != c.want {
			t.Errorf("%+v: Verdict() = %q, want %q", c.rep, got, c.want)
		}
	}
}
