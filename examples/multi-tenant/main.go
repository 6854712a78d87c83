// Multi-tenant SMP: the paper's Figure 1 scenario. Two independent
// applications run on disjoint processor subsets of one machine, each
// under its own SENSS group — its own session key, mask chains, and MAC
// chain — with GIDs assigned by the (untrusted) OS but enforced by the
// per-processor security hardware units.
//
// The demo shows: both applications compute correctly under protection;
// their bus traffic is tagged with different GIDs; each SHU's
// group-processor bit matrix holds only its own group's row (a processor
// knows nothing about groups it does not belong to); and an attack on one
// group's traffic is caught by that group's authentication.
//
//	go run ./examples/multi-tenant
package main

import (
	"fmt"
	"log"

	"senss"
	"senss/internal/cpu"
	"senss/internal/psync"
)

func main() {
	cfg := senss.DefaultConfig()
	cfg.Procs = 4
	cfg.Coherence.L1Size = 4 << 10
	cfg.Coherence.L2Size = 32 << 10
	cfg.Security.Mode = senss.SecurityBus
	cfg.Security.Senss.AuthInterval = 32
	cfg.TraceLimit = 200_000

	m := senss.NewMachine(cfg)
	m.PlanGroup([]int{0, 1}) // tenant A: processors 0-1
	m.PlanGroup([]int{2, 3}) // tenant B: processors 2-3

	// Tenant A: a shared work queue drained by two workers.
	// Tenant B: an iterative reduction.
	appA, resultA := buildQueueApp(m)
	appB, resultB := buildReductionApp(m)

	run, err := m.Run([]cpu.Program{appA[0], appA[1], appB[0], appB[1]})
	if err != nil {
		log.Fatal(err)
	}
	if halted, why := m.Halted(); halted {
		log.Fatalf("unexpected alarm: %s", why)
	}

	gidA, gidB := m.Nodes[0].GID, m.Nodes[2].GID
	fmt.Printf("tenant A (procs 0-1, GID %d): drained %d items — %s\n",
		gidA, m.ReadWord(resultA), check(m.ReadWord(resultA) == 2*256))
	fmt.Printf("tenant B (procs 2-3, GID %d): reduction = %d — %s\n",
		gidB, m.ReadWord(resultB), check(m.ReadWord(resultB) == 512*513/2))
	fmt.Printf("total: %d cycles, %d bus transactions, %d MAC broadcasts\n",
		run.Cycles, run.BusTotal, run.AuthMsgs)

	// Traffic separation: count trace events per GID.
	perGID := map[int]int{}
	for _, e := range m.Trace.Events {
		perGID[e.GID]++
	}
	fmt.Printf("bus messages tagged GID %d: %d; GID %d: %d\n",
		gidA, perGID[gidA], gidB, perGID[gidB])

	// Isolation: processor 0's SHU has an all-zero matrix row for B.
	fmt.Printf("SHU isolation: proc0 sees group B members = %#x (must be 0); proc2 sees group A members = %#x (must be 0)\n",
		m.Senss.SHU(0).Members(gidB), m.Senss.SHU(2).Members(gidA))
}

func check(ok bool) string {
	if ok {
		return "correct"
	}
	return "WRONG"
}

// buildQueueApp: two workers pop 256 items each from a lock-protected
// shared queue and count them.
func buildQueueApp(m *senss.Machine) ([2]cpu.Program, uint64) {
	const items = 2 * 256
	lock := psync.NewLock(m.Alloc(64))
	head := m.Alloc(64)
	drained := m.Alloc(64)
	var progs [2]cpu.Program
	for i := range progs {
		progs[i] = func(c *cpu.Port) {
			for {
				var got bool
				lock.WithLock(c, func() {
					h := c.Load(head)
					if h < items {
						c.Store(head, h+1)
						got = true
					}
				})
				if !got {
					return
				}
				c.Think(50) // "process" the item
				c.Add(drained, 1)
			}
		}
	}
	return progs, drained
}

// buildReductionApp: two threads sum halves of 1..512 and combine.
func buildReductionApp(m *senss.Machine) ([2]cpu.Program, uint64) {
	const n = 512
	data := m.Alloc(n * 8)
	for i := uint64(0); i < n; i++ {
		m.InitWord(data+i*8, i+1)
	}
	partial := m.Alloc(128)
	total := m.Alloc(64)
	barrier := psync.NewBarrier(m.Alloc(64), 2)
	var progs [2]cpu.Program
	for i := range progs {
		tid := i
		progs[i] = func(c *cpu.Port) {
			var ctx psync.Context
			var sum uint64
			for k := tid * n / 2; k < (tid+1)*n/2; k++ {
				sum += c.Load(data + uint64(k)*8)
			}
			c.Store(partial+uint64(tid)*64, sum)
			barrier.Wait(c, &ctx)
			if tid == 0 {
				c.Store(total, c.Load(partial)+c.Load(partial+64))
			}
		}
	}
	return progs, total
}
