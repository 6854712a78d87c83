// Attack detection: drive the paper's §3 attacks against SENSS, at two
// levels.
//
// First, protocol level: every canned scenario (wiretap XOR leak, Type 1
// dropping, Type 2 reordering, Type 3 spoofing/replay, each a bus-adversary
// step list) runs against the SHU protocol, including the two strawman
// schemes whose flaws the paper demonstrates.
//
// Second, system level: a one-step adversary script drops a broadcast on
// the bus of a full simulated machine running the radix benchmark; the
// periodic MAC broadcast catches the divergence and freezes the machine.
//
//	go run ./examples/attack-detection
package main

import (
	"fmt"
	"log"

	"senss"
	"senss/internal/attack"
	"senss/internal/core"
)

func main() {
	fmt.Println("── protocol-level scenarios ──────────────────────────────")
	for _, sc := range attack.Scenarios() {
		rep := sc.Run(7)
		status := "✔"
		if !rep.OK() {
			status = "✘"
		}
		fmt.Printf("%s %-26s %s\n", status, sc.Name, rep.Verdict())
	}

	fmt.Println("\n── full-machine attack: drop a broadcast mid-benchmark ──")
	cfg := senss.DefaultConfig()
	cfg.Procs = 4
	cfg.Coherence.L1Size = 4 << 10
	cfg.Coherence.L2Size = 64 << 10
	cfg.Security.Mode = senss.SecurityBus
	cfg.Security.Senss.AuthInterval = 32

	w, err := senss.NewWorkload("radix", senss.SizeTest)
	if err != nil {
		log.Fatal(err)
	}
	m := senss.NewMachine(cfg)
	progs := w.Setup(m, cfg.Procs)
	m.Load()
	m.SetTamperer(core.NewScript(cfg.Procs, []core.Step{{Seq: 40, Action: core.ActDrop, Victim: 2}}))

	run, err := m.Run(progs)
	if err != nil {
		log.Fatal(err)
	}
	if run.Halted {
		fmt.Printf("machine frozen after %d cycles: %s\n", run.Cycles, run.HaltReason)
		fmt.Printf("(%d cache-to-cache transfers had been protected; %d auth broadcasts)\n",
			run.C2C, run.AuthMsgs)
	} else {
		fmt.Println("UNEXPECTED: attack not detected")
	}
}
