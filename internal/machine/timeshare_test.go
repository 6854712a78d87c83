package machine

import (
	"reflect"
	"testing"

	"senss/internal/cpu"
	"senss/internal/stats"
)

// tsApp builds a per-processor increment loop over its own counter line,
// suitable for time-sharing (no cross-app state).
func tsApp(m *Machine, procs, iters int) ([]cpu.Program, []uint64) {
	counters := make([]uint64, procs)
	progs := make([]cpu.Program, procs)
	for i := 0; i < procs; i++ {
		counters[i] = m.Alloc(64)
		addr := counters[i]
		progs[i] = func(c *cpu.Port) {
			for k := 0; k < iters; k++ {
				c.Store(addr, c.Load(addr)+1)
				c.Think(20)
			}
		}
	}
	return progs, counters
}

func TestTimeSharedSwapsAndComputesCorrectly(t *testing.T) {
	cfg := smallConfig(2, SecurityBus)
	cfg.Security.Senss.AuthInterval = 10
	m := New(cfg)
	const iters = 300
	appA, countersA := tsApp(m, 2, iters)
	appB, countersB := tsApp(m, 2, iters)

	run, err := m.RunTimeShared(appA, appB, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	if halted, why := m.Halted(); halted {
		t.Fatalf("false alarm during time-sharing: %s", why)
	}
	if m.SwapCount < 2 {
		t.Errorf("only %d context switches — quantum too coarse for the test", m.SwapCount)
	}
	for i, addr := range countersA {
		if got := m.ReadWord(addr); got != iters {
			t.Errorf("app A counter %d = %d, want %d", i, got, iters)
		}
	}
	for i, addr := range countersB {
		if got := m.ReadWord(addr); got != iters {
			t.Errorf("app B counter %d = %d, want %d", i, got, iters)
		}
	}
	if run.AuthMsgs == 0 {
		t.Error("no authentication traffic across the swaps")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestTimeSharedUnequalLengths(t *testing.T) {
	// App A finishes quickly; B keeps running across further quanta.
	cfg := smallConfig(2, SecurityBus)
	m := New(cfg)
	appA, countersA := tsApp(m, 2, 20)
	appB, countersB := tsApp(m, 2, 500)
	if _, err := m.RunTimeShared(appA, appB, 1_500); err != nil {
		t.Fatal(err)
	}
	if got := m.ReadWord(countersA[0]); got != 20 {
		t.Errorf("short app counter = %d", got)
	}
	if got := m.ReadWord(countersB[1]); got != 500 {
		t.Errorf("long app counter = %d", got)
	}
}

func TestTimeSharedRequiresSenss(t *testing.T) {
	m := New(smallConfig(2, SecurityOff))
	if _, err := m.RunTimeShared(nil, nil, 1000); err == nil {
		t.Error("time-sharing without SENSS accepted")
	}
}

func TestTimeSharedRejectsZeroQuantum(t *testing.T) {
	m := New(smallConfig(2, SecurityBus))
	if _, err := m.RunTimeShared(nil, nil, 0); err == nil {
		t.Error("zero quantum accepted")
	}
}

// storeTailApp is tsApp without the think time: every program ends on a
// store, so it finishes owing that store's latency.
func storeTailApp(m *Machine, procs, iters int) []cpu.Program {
	progs := make([]cpu.Program, procs)
	for i := 0; i < procs; i++ {
		addr := m.Alloc(64)
		progs[i] = func(c *cpu.Port) {
			for k := 0; k < iters; k++ {
				c.Store(addr, c.Load(addr)+1)
			}
		}
	}
	return progs
}

// TestTimeSharedExitTiming pins the whole measurement of a time-shared
// run in which app A's programs finish, owing their last store's latency,
// while the scheduler is quiescing them: each exit must be noted at the
// cycle that store completes, so any slip in exit order or cycle moves
// the swap schedule and this record.
func TestTimeSharedExitTiming(t *testing.T) {
	m := New(smallConfig(2, SecurityBus))
	appA := storeTailApp(m, 2, 30)
	appB, _ := tsApp(m, 2, 100)
	run, err := m.RunTimeShared(appA, appB, 500)
	if err != nil {
		t.Fatal(err)
	}
	want := stats.Run{
		Procs: 2, Label: "senss", Cycles: 5606,
		BusTotal: 30, BusByKind: map[string]uint64{"BusRd": 30},
		C2C: 13, MemFills: 17, BusBusy: 690,
		ArbWaits: 3, ArbWaitCyc: 59, ArbWaitMax: 23,
		BusData: 1920, ExtraBus: 90,
		L1DHits: 256, L1DMisses: 4, L1IHits: 14, L1IMisses: 50,
		L2Hits: 284, L2Misses: 30, Loads: 260, Stores: 260,
	}
	if !reflect.DeepEqual(run, want) {
		t.Errorf("run = %+v\nwant  %+v", run, want)
	}
	if m.SwapCount != 3 {
		t.Errorf("%d context switches, want 3", m.SwapCount)
	}
}
