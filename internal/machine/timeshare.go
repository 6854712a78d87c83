package machine

import (
	"fmt"

	"senss/internal/core"
	"senss/internal/cpu"
	"senss/internal/sim"
	"senss/internal/stats"
)

// Time-sharing (paper §4.2): two applications share the same processors,
// alternating by quantum. At every switch the outgoing group is quiesced
// at operation boundaries, each member SHU's session context is encrypted
// and "written out" (Suspend), the incoming group's contexts are restored
// (Resume), and the bus tags flip to the incoming GID. The OS drives the
// schedule but only ever handles opaque encrypted contexts.

// timeSharedGroup is the scheduler's view of one application.
type timeSharedGroup struct {
	gid      int
	programs []cpu.Program
	gate     *cpu.Gate
	running  int
	saved    []*core.SavedContext // non-nil while swapped out
	seed     uint64
}

// RunTimeShared runs appA and appB on the same processors under SENSS,
// alternating every quantum cycles. Both applications must have at most
// Procs programs. Requires SecurityBus (or higher) and must be the
// machine's only Run call.
func (m *Machine) RunTimeShared(appA, appB []cpu.Program, quantum uint64) (stats.Run, error) {
	if m.Senss == nil {
		return stats.Run{}, fmt.Errorf("machine: time-sharing requires SENSS")
	}
	if len(appA) > m.Config.Procs || len(appB) > m.Config.Procs {
		return stats.Run{}, fmt.Errorf("machine: too many programs for %d processors", m.Config.Procs)
	}
	if quantum == 0 {
		return stats.Run{}, fmt.Errorf("machine: zero quantum")
	}
	m.Load() // establishes the default group over all processors → group A

	all := make([]int, m.Config.Procs)
	for i := range all {
		all[i] = i
	}
	a := &timeSharedGroup{gid: m.GID, programs: appA, gate: &cpu.Gate{}, seed: 101}
	b := &timeSharedGroup{gid: m.establishGroup(all), programs: appB, gate: &cpu.Gate{}, seed: 202}
	m.planned = append(m.planned, all) // so Shutdown reclaims group B too

	// Group A starts active; B's programs park at their first operation.
	for _, pid := range all {
		m.Nodes[pid].GID = a.gid
	}
	b.gate.Close()

	spawn := func(g *timeSharedGroup) {
		for i, prog := range g.programs {
			if prog == nil {
				continue
			}
			g.running++
			m.spawnProgram(i, fmt.Sprintf("cpu%d-g%d", i, g.gid), prog, g.gate, func() {
				g.running--
				g.gate.NoteExit(m.Engine)
			})
		}
	}
	spawn(a)
	spawn(b)

	m.Engine.Spawn("scheduler", func(p *sim.Proc) {
		active, other := a, b
		for a.running > 0 || b.running > 0 {
			p.Sleep(quantum)
			if halted, _ := m.Engine.Halted(); halted {
				return
			}
			if other.running == 0 {
				if active.running == 0 {
					return
				}
				continue // nothing to switch to
			}
			m.swapGroups(p, active, other)
			active, other = other, active
		}
	})

	err := m.Engine.Run()
	run := m.Collect()
	if err != nil {
		return run, err
	}
	return run, nil
}

// swapGroups quiesces `from`, suspends its SHU contexts, restores `to`,
// and flips the bus tags — one §4.2 context switch.
func (m *Machine) swapGroups(p *sim.Proc, from, to *timeSharedGroup) {
	m.SwapCount++
	from.gate.Close()
	from.gate.WaitQuiesce(p, func() int { return from.running })

	// Encrypt the outgoing group's contexts (they leave the chip).
	if from.running > 0 || from.saved == nil {
		from.seed++
		from.saved = make([]*core.SavedContext, m.Config.Procs)
		for pid := 0; pid < m.Config.Procs; pid++ {
			saved, err := m.Senss.SHU(pid).Suspend(from.gid, from.seed)
			if err != nil {
				panic(fmt.Sprintf("machine: suspend group %d on cpu%d: %v", from.gid, pid, err))
			}
			from.saved[pid] = saved
		}
	}

	// Restore the incoming group's contexts, if it was ever swapped out.
	if to.saved != nil {
		key := m.groupKeys[to.gid]
		for pid := 0; pid < m.Config.Procs; pid++ {
			if err := m.Senss.SHU(pid).Resume(to.saved[pid], key); err != nil {
				m.Engine.Halt(fmt.Sprintf("senss: context swap-in rejected: %v", err))
				return
			}
		}
		to.saved = nil
	}

	for pid := 0; pid < m.Config.Procs; pid++ {
		m.Nodes[pid].GID = to.gid
	}
	to.gate.Open(m.Engine)
}
