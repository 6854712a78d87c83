package core

import (
	"testing"

	"senss/internal/bus"
	"senss/internal/rng"
	"senss/internal/sim"
)

func adaptiveParams() Params {
	p := DefaultParams()
	p.Adaptive = true
	p.AuthInterval = 8
	return p
}

// driveAt pushes one clean transfer through the system at the engine's
// current time (the adaptive controller reads the engine clock when no
// proc is supplied).
func driveAt(s *System, gid int, r *rng.Rand, i int) {
	data := randomLine(r)
	t := &bus.Transaction{Kind: bus.Rd, Addr: 0x1000, Src: (i + 1) % 4, GID: gid, Data: data}
	t.SupplierID = i % 4
	s.OnTransaction(nil, t)
}

func TestAdaptiveIntervalGrowsUnderLoad(t *testing.T) {
	params := adaptiveParams()
	params.Perfect = true
	engine := sim.NewEngine()
	s := NewSystem(engine, nil, 4, params, false)
	key, encIV, authIV := testIVs(400)
	table := NewGroupTable()
	gid, _ := table.Allocate(MemberMask(0, 1, 2, 3))
	if err := s.Establish(gid, key, MemberMask(0, 1, 2, 3), encIV, authIV); err != nil {
		t.Fatal(err)
	}
	r := rng.New(401)
	start := s.CurrentInterval(gid)

	// Back-to-back messages (10-cycle gaps ≪ busyGapCycles): the interval
	// must grow.
	for i := 0; i < 64; i++ {
		i := i
		engine.Schedule(uint64(10*i), func() { driveAt(s, gid, r, i) })
	}
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if got := s.CurrentInterval(gid); got <= start {
		t.Errorf("interval %d did not grow from %d under heavy load", got, start)
	}
	if s.Stats.IntervalUps == 0 {
		t.Error("no upward adjustments recorded")
	}
	if s.Detected() {
		t.Errorf("false alarm: %v", s.Stats.Detections)
	}
}

func TestAdaptiveIntervalShrinksWhenIdle(t *testing.T) {
	params := adaptiveParams()
	params.Perfect = true
	params.AuthInterval = 32
	engine := sim.NewEngine()
	s := NewSystem(engine, nil, 4, params, false)
	key, encIV, authIV := testIVs(402)
	table := NewGroupTable()
	gid, _ := table.Allocate(MemberMask(0, 1, 2, 3))
	if err := s.Establish(gid, key, MemberMask(0, 1, 2, 3), encIV, authIV); err != nil {
		t.Fatal(err)
	}
	r := rng.New(403)
	// Sparse messages (5000-cycle gaps ≫ idleGapCycles): interval shrinks
	// toward the minimum, tightening detection latency for free.
	for i := 0; i < 64; i++ {
		i := i
		engine.Schedule(uint64(5000*i), func() { driveAt(s, gid, r, i) })
	}
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if got := s.CurrentInterval(gid); got >= 32 {
		t.Errorf("interval %d did not shrink from 32 when idle", got)
	}
	if s.Stats.IntervalDowns == 0 {
		t.Error("no downward adjustments recorded")
	}
}

// TestAdaptiveRespectsBounds: sustained heavy load doubles the interval
// up to maxInterval and holds it there.
func TestAdaptiveRespectsBounds(t *testing.T) {
	params := adaptiveParams()
	params.Perfect = true
	engine := sim.NewEngine()
	s := NewSystem(engine, nil, 4, params, false)
	key, encIV, authIV := testIVs(404)
	table := NewGroupTable()
	gid, _ := table.Allocate(MemberMask(0, 1, 2, 3))
	if err := s.Establish(gid, key, MemberMask(0, 1, 2, 3), encIV, authIV); err != nil {
		t.Fatal(err)
	}
	r := rng.New(405)
	for i := 0; i < 400; i++ {
		i := i
		engine.Schedule(uint64(5*i), func() { driveAt(s, gid, r, i) })
	}
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if got := s.CurrentInterval(gid); got != maxInterval {
		t.Errorf("interval %d after sustained load, want the ceiling %d", got, maxInterval)
	}
}

// TestAdaptiveStillDetectsAttacks: widening the interval must not lose the
// detection guarantee — the chain still covers every transfer.
func TestAdaptiveStillDetectsAttacks(t *testing.T) {
	params := adaptiveParams()
	params.Perfect = true
	engine := sim.NewEngine()
	s := NewSystem(engine, nil, 4, params, false)
	key, encIV, authIV := testIVs(406)
	table := NewGroupTable()
	gid, _ := table.Allocate(MemberMask(0, 1, 2, 3))
	if err := s.Establish(gid, key, MemberMask(0, 1, 2, 3), encIV, authIV); err != nil {
		t.Fatal(err)
	}
	s.SetTamperer(NewScript(4, []Step{{Seq: 20, Action: ActDrop, Victim: 3}}))
	r := rng.New(407)
	for i := 0; i < 200; i++ {
		i := i
		engine.Schedule(uint64(10*i), func() {
			if !s.Detected() {
				driveAt(s, gid, r, i)
			}
		})
	}
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if !s.Detected() {
		t.Fatal("attack undetected under adaptive intervals")
	}
}
