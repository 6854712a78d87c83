package cpu

import (
	"testing"

	"senss/internal/sim"
)

func TestGateOpenPassThrough(t *testing.T) {
	e := sim.NewEngine()
	g := &Gate{}
	steps := 0
	e.Spawn("p", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			g.check(p)
			steps++
			p.Sleep(1)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if steps != 5 {
		t.Errorf("steps = %d", steps)
	}
	if g.Closed() || g.Parked() != 0 {
		t.Error("open gate shows closed/parked state")
	}
}

func TestGateParksAndReleases(t *testing.T) {
	e := sim.NewEngine()
	g := &Gate{}
	g.Close()
	progress := 0
	for i := 0; i < 3; i++ {
		e.Spawn("p", func(p *sim.Proc) {
			g.check(p)
			progress++
		})
	}
	var openedAt uint64
	e.Schedule(500, func() {
		if g.Parked() != 3 {
			t.Errorf("parked = %d at open time", g.Parked())
		}
		openedAt = e.Now()
		g.Open(e)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if progress != 3 {
		t.Errorf("progress = %d after open", progress)
	}
	if openedAt != 500 {
		t.Errorf("opened at %d", openedAt)
	}
}

func TestGateWaitQuiesce(t *testing.T) {
	e := sim.NewEngine()
	g := &Gate{}
	running := 2
	for i := 0; i < 2; i++ {
		i := i
		e.Spawn("worker", func(p *sim.Proc) {
			p.Sleep(uint64(100 * (i + 1)))
			g.check(p) // parks (gate closed by scheduler below)
		})
	}
	var quiescedAt uint64
	e.Spawn("sched", func(p *sim.Proc) {
		p.Sleep(10)
		g.Close()
		g.WaitQuiesce(p, func() int { return running })
		quiescedAt = p.Now()
		g.Open(e)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if quiescedAt != 200 { // the slower worker parks at t=200
		t.Errorf("quiesced at %d, want 200", quiescedAt)
	}
}

func TestGateNoteExitUnblocksScheduler(t *testing.T) {
	e := sim.NewEngine()
	g := &Gate{}
	running := 1
	e.Spawn("worker", func(p *sim.Proc) {
		p.Sleep(50)
		// Finishes without ever parking.
		running--
		g.NoteExit(e)
	})
	done := false
	e.Spawn("sched", func(p *sim.Proc) {
		g.Close()
		g.WaitQuiesce(p, func() int { return running })
		done = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Error("scheduler never unblocked after the worker exited")
	}
}

// TestGateClosedInsideOwedLatency closes the gate from an fn event while
// a program owes the latency of its last load. The gate is read only once
// that latency is taken, so the program parks where plain sleeps would
// park it: after the load completes, not one operation later.
func TestGateClosedInsideOwedLatency(t *testing.T) {
	e, _, n := newRig() // L1 hit: 2 cycles
	g := &Gate{}
	const gap, hit = 5, 2
	var parkedAt, loadsAtPark uint64
	var closeAt uint64
	Spawn(e, "cpu0", n, Params{OpGap: gap, Gate: g}, func(c *Port) {
		c.Load(0x700) // miss: warms the line
		t0 := c.Now()
		// Hit k (k ≥ 1) completes at t0 + k*(gap+hit); close the gate
		// one cycle before the third completes, inside its owed latency.
		closeAt = t0 + 3*(gap+hit) - 1
		e.Schedule(closeAt, func() {
			g.Close()
			e.Spawn("watch", func(p *sim.Proc) {
				g.WaitQuiesce(p, func() int { return 1 })
				parkedAt, loadsAtPark = p.Now(), n.Stats.Loads
				g.Open(e)
			})
		})
		for k := 0; k < 6; k++ {
			c.Load(0x700)
		}
	}, nil)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := closeAt + 1; parkedAt != want || loadsAtPark != 4 {
		t.Errorf("parked at cycle %d after %d loads, want cycle %d after 4", parkedAt, loadsAtPark, want)
	}
}
