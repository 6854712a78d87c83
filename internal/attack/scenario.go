package attack

import (
	"fmt"
	"strings"

	"senss/internal/core"
	"senss/internal/crypto"
	"senss/internal/crypto/aes"
	"senss/internal/rng"
)

// Check names the SENSS check that catches an attack (paper §4.3).
type Check int

const (
	// NoCheck: nothing may fire — the strawman demonstrations.
	NoCheck Check = iota
	// MACCheck: the members' chained MACs disagree at the next
	// authentication point. Drops, reorders, replays, corruptions and
	// targeted spoofs all split the chain this way.
	MACCheck
	// SelfSnoopCheck: a processor snoops a message claiming its own PID
	// and raises the alarm at once.
	SelfSnoopCheck
	// OtherCheck: any other alarm, including a strawman's own check; no
	// scenario is meant to fire it.
	OtherCheck
)

func (c Check) String() string {
	return [...]string{"no check", "MAC check", "self-snoop alarm", "other alarm"}[c]
}

// firedCheck names the check behind the first detection sys recorded.
func firedCheck(sys *core.System) Check {
	if len(sys.Stats.Detections) == 0 {
		return NoCheck
	}
	switch d := sys.Stats.Detections[0]; {
	case strings.HasPrefix(d, "bus authentication failure:"):
		return MACCheck
	case strings.Contains(d, "snooped a message claiming its own PID"):
		return SelfSnoopCheck
	}
	return OtherCheck
}

// Report is the outcome of one attack scenario.
type Report struct {
	Name     string
	Attacked bool
	Fired    Check // the check behind the first detection; NoCheck if none fired
	Want     Check // the scenario's Check: NoCheck for the strawman demos, which must NOT detect
	Details  []string
}

// Verdict summarizes whether the scenario behaved as the paper predicts.
func (r Report) Verdict() string {
	switch {
	case r.OK() && r.Want != NoCheck:
		return "DETECTED (as designed)"
	case r.OK():
		return "UNDETECTED (the strawman's flaw, as the paper argues)"
	case r.Fired == NoCheck:
		return "MISSED — SENSS should have caught this"
	case r.Want == NoCheck:
		return "UNEXPECTED DETECTION"
	default:
		return fmt.Sprintf("caught by the %s, want the %s", r.Fired, r.Want)
	}
}

// OK reports whether the outcome matches the paper's prediction: the
// check the scenario exercises fired, or nothing did for a strawman demo.
func (r Report) OK() bool { return r.Fired == r.Want }

// Scenario is a runnable attack demonstration.
type Scenario struct {
	Name        string
	Description string
	Check       Check // the check that must catch it; NoCheck for the strawman demos

	run func(seed uint64) Report
}

// Run executes the scenario under seed.
func (sc Scenario) Run(seed uint64) Report {
	r := sc.run(seed)
	r.Name = sc.Name
	r.Want = sc.Check
	return r
}

// scripted runs steps against the protocol rig over up to transfers
// broadcasts and reports what the SENSS layer made of them.
func scripted(params core.Params, transfers int, detail string, steps ...core.Step) func(uint64) Report {
	return func(seed uint64) Report {
		rig := NewRig(seed, params, nil)
		script := core.NewScript(RigProcs, steps)
		rig.Sys.SetTamperer(script)
		rig.Drive(transfers)
		return Report{
			Attacked: script.Deviated(),
			Fired:    firedCheck(rig.Sys),
			Details:  append([]string{detail}, rig.Sys.Stats.Detections...),
		}
	}
}

// Scenarios returns every canned demonstration, in presentation order.
// The rig's broadcast i comes from processor i mod 4, so each step list
// picks victims that receive the broadcast it targets.
func Scenarios() []Scenario {
	params := core.DefaultParams()
	params.AuthInterval = 10

	return []Scenario{
		{
			Name: "pad-reuse-leak",
			Description: "§3.1 strawman: reusing the memory pad on the bus " +
				"leaks D⊕D' to a passive wiretap",
			run: func(seed uint64) Report {
				r := rng.New(seed)
				key := aes.Block(r.Block16())
				ch := core.NewPadReuseChannel(crypto.MustBackend(crypto.Ref, key))
				d1 := aes.Block(r.Block16())
				d2 := aes.Block(r.Block16())
				c1 := ch.Encrypt(0x4000, 3, d1)
				c2 := ch.Encrypt(0x4000, 3, d2)
				leak := core.LeakXOR(c1, c2)
				return Report{
					Attacked: true,
					Details: []string{
						fmt.Sprintf("ciphertext1 ⊕ ciphertext2 = %s", leak),
						fmt.Sprintf("plaintext1  ⊕ plaintext2  = %s", d1.XOR(d2)),
						fmt.Sprintf("relation exposed to wiretap: %v", leak == d1.XOR(d2)),
					},
				}
			},
		},
		{
			Name: "senss-no-leak",
			Description: "the SENSS chained masks never repeat, so the same " +
				"XOR attack yields nothing",
			run: func(seed uint64) Report {
				rig := NewRig(seed, params, nil)
				tap := core.NewScript(RigProcs, nil)
				rig.Sys.SetTamperer(tap)
				line := make([]byte, 64)
				for i := range line {
					line[i] = 0x5A
				}
				rig.transfer(0, 1, line)
				rig.transfer(0, 1, line)
				sent := tap.Sent(1)
				x := sent[0].Cipher[0].XOR(sent[1].Cipher[0])
				return Report{
					Attacked: true,
					Details: []string{
						fmt.Sprintf("same plaintext sent twice; ciphertext XOR = %s", x),
						fmt.Sprintf("zero would mean a leak: %v (must be false)", x.IsZero()),
					},
				}
			},
		},
		{
			Name:        "type1-drop",
			Description: "Type 1: a broadcast is blocked from two processors",
			Check:       MACCheck,
			run: scripted(params, 25, "dropped broadcast 4 for processors 2 and 3",
				core.Step{Seq: 4, Action: core.ActDrop, Victim: 2},
				core.Step{Seq: 4, Action: core.ActDrop, Victim: 3}),
		},
		{
			Name:        "type2-reorder",
			Description: "Type 2: two adjacent broadcasts are swapped on the wire",
			Check:       MACCheck,
			// Processors 0 and 1 receive both broadcasts 2 and 3.
			run: scripted(params, 25, "swapped broadcasts 2 and 3",
				core.Step{Seq: 2, Action: core.ActDelay, Victim: 0},
				core.Step{Seq: 2, Action: core.ActDelay, Victim: 1}),
		},
		{
			Name: "type2-strawman-recovers",
			Description: "§4.3 strawman: using the masks as integrity evidence " +
				"re-converges after a swap, so nothing is detected",
			run: func(seed uint64) Report {
				r := rng.New(seed)
				key := aes.Block(r.Block16())
				iv := aes.Block(r.Block16())
				send := core.NewMaskChainAuth(crypto.MustBackend(crypto.Ref, key), iv)
				recv := core.NewMaskChainAuth(crypto.MustBackend(crypto.Ref, key), iv)
				c1, c2, c3 := aes.Block(r.Block16()), aes.Block(r.Block16()), aes.Block(r.Block16())
				send.ObserveCipher(c1)
				send.ObserveCipher(c2)
				send.ObserveCipher(c3)
				recv.ObserveCipher(c2) // swapped...
				recv.ObserveCipher(c1)
				recv.ObserveCipher(c3) // ...but the chain depends only on the last cipher
				same := send.Evidence() == recv.Evidence()
				fired := NoCheck
				if !same {
					fired = OtherCheck
				}
				return Report{
					Attacked: true,
					Fired:    fired,
					Details: []string{
						fmt.Sprintf("checkpoint evidence equal after swap: %v", same),
						"the separate-IV CBC-MAC chain of SENSS keeps the divergence instead",
					},
				}
			},
		},
		{
			Name:        "type3-spoof-targeted",
			Description: "Type 3: a fabricated message with a valid GID/PID is fed to one victim",
			Check:       MACCheck,
			run: scripted(params, 25, "spoofed message claiming PID 2 delivered to processor 3 only",
				core.Step{Seq: 1, Action: core.ActSpoof, Victim: 3, Arg: 2}),
		},
		{
			Name:        "type3-spoof-self-snoop",
			Description: "Type 3: the spoof reaches the processor whose PID it claims — instant alarm",
			Check:       SelfSnoopCheck,
			run: scripted(params, 5, "processor 2 snooped a message claiming its own PID",
				core.Step{Seq: 0, Action: core.ActSpoof, Victim: 2, Arg: 2}),
		},
		{
			Name:        "replay",
			Description: "Type 3 variant: an old broadcast is replayed to one victim",
			Check:       MACCheck,
			// The first step captures broadcast 1 for processor 3, the
			// second replays it there.
			run: scripted(params, 25, "broadcast 1 replayed to processor 3 after broadcast 5",
				core.Step{Seq: 1, Action: core.ActReplay, Victim: 3},
				core.Step{Seq: 5, Action: core.ActReplay, Victim: 3}),
		},
		{
			Name:        "wire-corruption",
			Description: "bit flips injected into one broadcast for one receiver",
			Check:       MACCheck,
			run: scripted(params, 25, "flipped one ciphertext bit for processor 1",
				core.Step{Seq: 4, Action: core.ActCorrupt, Victim: 1, Arg: 5}),
		},
	}
}
