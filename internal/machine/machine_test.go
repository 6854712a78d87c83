package machine

import (
	"errors"
	"strings"
	"testing"

	"senss/internal/coherence"
	"senss/internal/core"
	"senss/internal/cpu"
	"senss/internal/psync"
	"senss/internal/sim"
	"senss/internal/stats"
)

// smallConfig shrinks the caches so tests exercise evictions quickly.
func smallConfig(procs int, mode SecurityMode) Config {
	cfg := DefaultConfig()
	cfg.Procs = procs
	cfg.Coherence.L1Size = 1 << 10
	cfg.Coherence.L2Size = 16 << 10
	cfg.CPU.CodeBytes = 1 << 10
	cfg.Security.Mode = mode
	cfg.Limit = 2_000_000_000
	return cfg
}

// counterProgram has every thread lock-increment a shared counter and then
// barrier. It exercises RMW, locks, barriers, and plain load/store sharing.
func counterProgram(m *Machine, procs, iters int) ([]cpu.Program, uint64, *psync.Barrier) {
	lockAddr := m.Alloc(64)
	counter := m.Alloc(64)
	barrierMem := m.Alloc(64)
	lock := psync.NewLock(lockAddr)
	bar := psync.NewBarrier(barrierMem, procs)
	progs := make([]cpu.Program, procs)
	for i := 0; i < procs; i++ {
		progs[i] = func(c *cpu.Port) {
			var ctx psync.Context
			for k := 0; k < iters; k++ {
				lock.Acquire(c)
				v := c.Load(counter)
				c.Store(counter, v+1)
				lock.Release(c)
			}
			bar.Wait(c, &ctx)
		}
	}
	return progs, counter, bar
}

func TestBaselineCounterCorrect(t *testing.T) {
	const procs, iters = 4, 100
	m := New(smallConfig(procs, SecurityOff))
	progs, counter, _ := counterProgram(m, procs, iters)
	run, err := m.Run(progs)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.ReadWord(counter); got != procs*iters {
		t.Errorf("counter = %d, want %d", got, procs*iters)
	}
	if run.Cycles == 0 || run.BusTotal == 0 || run.C2C == 0 {
		t.Errorf("implausible stats: %+v", run)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestSenssModePreservesResultsAndCosts(t *testing.T) {
	const procs, iters = 4, 100
	base := New(smallConfig(procs, SecurityOff))
	bProgs, bCounter, _ := counterProgram(base, procs, iters)
	baseRun, err := base.Run(bProgs)
	if err != nil {
		t.Fatal(err)
	}

	cfg := smallConfig(procs, SecurityBus)
	cfg.Security.Senss.AuthInterval = 10
	sec := New(cfg)
	sProgs, sCounter, _ := counterProgram(sec, procs, iters)
	secRun, err := sec.Run(sProgs)
	if err != nil {
		t.Fatal(err)
	}

	if got := sec.ReadWord(sCounter); got != procs*iters {
		t.Errorf("secure counter = %d, want %d", got, procs*iters)
	}
	if got := base.ReadWord(bCounter); got != procs*iters {
		t.Errorf("base counter = %d, want %d", got, procs*iters)
	}
	if secRun.Cycles < baseRun.Cycles {
		t.Errorf("secure run faster than base: %d < %d", secRun.Cycles, baseRun.Cycles)
	}
	if secRun.AuthMsgs == 0 {
		t.Error("no authentication messages issued")
	}
	if halted, why := sec.Halted(); halted {
		t.Errorf("false alarm: %s", why)
	}
	if err := sec.CheckInvariants(); err != nil {
		t.Error(err)
	}
	slow := stats.SlowdownPct(baseRun, secRun)
	if slow < 0 || slow > 50 {
		t.Errorf("implausible slowdown %.2f%%", slow)
	}
}

func TestFullProtectionPreservesResults(t *testing.T) {
	const procs, iters = 2, 60
	cfg := smallConfig(procs, SecurityBusMem)
	cfg.Security.Integrity = true
	cfg.Coherence.L2Size = 4 << 10
	m := New(cfg)
	progs, counter, _ := counterProgram(m, procs, iters)
	// Add an eviction-heavy sweep on processor 0 so writebacks (and with
	// them pad invalidations and hash updates) certainly occur.
	sweep := m.Alloc(16 << 10)
	inner := progs[0]
	progs[0] = func(c *cpu.Port) {
		for i := uint64(0); i < (16<<10)/8; i++ {
			c.Store(sweep+i*8, i)
		}
		inner(c)
	}
	run, err := m.Run(progs)
	if err != nil {
		t.Fatal(err)
	}
	if halted, why := m.Halted(); halted {
		t.Fatalf("false alarm under full protection: %s", why)
	}
	if got := m.ReadWord(counter); got != procs*iters {
		t.Errorf("counter = %d, want %d", got, procs*iters)
	}
	if run.PadMsgs == 0 {
		t.Error("no pad-coherence messages with memory encryption on")
	}
	if run.HashOps == 0 {
		t.Error("no hash computations with integrity on")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestMemoryHoldsCiphertext verifies the §2.1 property: with memsec on,
// DRAM contents differ from the plaintext the processors see.
func TestMemoryHoldsCiphertext(t *testing.T) {
	cfg := smallConfig(1, SecurityBusMem)
	m := New(cfg)
	addr := m.Alloc(64)
	m.InitWord(addr, 0x1122334455667788)
	if _, err := m.Run([]cpu.Program{func(c *cpu.Port) {
		c.Load(addr)
	}}); err != nil {
		t.Fatal(err)
	}
	raw := m.Store.ReadWord(addr)
	if raw == 0x1122334455667788 {
		t.Error("memory holds plaintext despite encryption")
	}
	if got := m.Memsec.ReadWordDecrypted(addr); got != 0x1122334455667788 {
		t.Errorf("decrypted view = %#x", got)
	}
}

// TestMemoryTamperDetected flips a bit in DRAM behind the processors'
// backs; the CHash tree must halt the machine when the line is refetched.
func TestMemoryTamperDetected(t *testing.T) {
	cfg := smallConfig(1, SecurityBusMem)
	cfg.Security.Integrity = true
	cfg.Coherence.L2Size = 4 << 10 // tiny L2 so the array is evicted
	m := New(cfg)

	const words = 4096 // 32 KiB, 8x the L2
	arr := m.Alloc(words * 8)
	victim := arr // first line: certainly evicted after the sweep

	tampered := false
	prog := func(c *cpu.Port) {
		for i := uint64(0); i < words; i++ {
			c.Store(arr+i*8, i)
		}
		// By now the first lines were written back. Tamper memory directly
		// (the adversary does not advance simulated time).
		m.Store.Tamper(victim, 0x40)
		tampered = true
		c.Load(victim) // refetch: integrity must catch it
	}
	if _, err := m.Run([]cpu.Program{prog}); err != nil {
		t.Fatal(err)
	}
	halted, why := m.Halted()
	if !tampered {
		t.Fatal("test never tampered")
	}
	if !halted || !strings.Contains(why, "integrity") {
		t.Fatalf("tampering not detected (halted=%v, why=%q)", halted, why)
	}
}

func TestConfigValidate(t *testing.T) {
	good := smallConfig(4, SecurityBus)
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero procs", func(c *Config) { c.Procs = 0 }},
		{"too many procs", func(c *Config) { c.Procs = 64 }},
		{"line mismatch", func(c *Config) { c.Coherence.L2Line = 128 }},
		{"l1 not dividing l2", func(c *Config) { c.Coherence.L1Line = 48 }},
		{"no bus timing", func(c *Config) { c.Bus.BusCycle = 0 }},
		{"bad mask count", func(c *Config) { c.Security.Senss.Masks = 3 }},
	}
	for _, c := range cases {
		cfg := smallConfig(4, SecurityOff)
		c.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestConfigValidateGeometry: every L1 or L2 geometry that cache.New
// would panic on comes back from Validate as a *GeometryError naming the
// cache, and the geometries cache.New accepts pass.
func TestConfigValidateGeometry(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*coherence.Params)
		cache  string // "" = valid
	}{
		{"paper geometry", func(c *coherence.Params) {}, ""},
		{"l2 sets not a power of two", func(c *coherence.Params) { c.L2Size = 100000 }, "L2"},
		{"l1 sets not a power of two", func(c *coherence.Params) { c.L1Size = 3 << 10 }, "L1"},
		{"l2 ways give odd sets", func(c *coherence.Params) { c.L2Ways = 3 }, "L2"},
		{"l1 line not a power of two", func(c *coherence.Params) { c.L1Line = 24; c.L2Line = 48 }, "L1"},
		{"l2 line not a power of two", func(c *coherence.Params) { c.L1Line = 16; c.L2Line = 48 }, "L2"},
		{"zero l2 size", func(c *coherence.Params) { c.L2Size = 0 }, "L2"},
		{"negative l1 size", func(c *coherence.Params) { c.L1Size = -4096 }, "L1"},
		{"zero l1 ways", func(c *coherence.Params) { c.L1Ways = 0 }, "L1"},
		{"zero l1 line", func(c *coherence.Params) { c.L1Line = 0 }, "L1"},
		{"smaller than one set", func(c *coherence.Params) { c.L1Size = 32 }, ""},
		{"fully associative", func(c *coherence.Params) { c.L1Ways = 128 }, ""},
	}
	for _, tc := range cases {
		cfg := smallConfig(4, SecurityOff)
		tc.mutate(&cfg.Coherence)
		err := cfg.Validate()
		var ge *GeometryError
		switch {
		case tc.cache == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.cache == "":
			New(cfg) // must not panic in cache.New
		case !errors.As(err, &ge):
			t.Errorf("%s: Validate = %v, want a *GeometryError", tc.name, err)
		case ge.Cache != tc.cache:
			t.Errorf("%s: error names the %s cache, want %s: %v", tc.name, ge.Cache, tc.cache, err)
		}
	}
}

// TestSecurityModeNames: ParseSecurityMode inverts String over every
// mode and rejects any other name.
func TestSecurityModeNames(t *testing.T) {
	want := map[SecurityMode]string{
		SecurityOff: "base", SecurityBus: "senss", SecurityBusMem: "senss+mem", SecurityNaive: "naive",
	}
	for m, name := range want {
		if got := m.String(); got != name {
			t.Errorf("%d.String() = %q, want %q", int(m), got, name)
		}
		if got, err := ParseSecurityMode(name); err != nil || got != m {
			t.Errorf("ParseSecurityMode(%q) = %v, %v; want %v", name, got, err, m)
		}
	}
	if _, err := ParseSecurityMode("senss+naive"); err == nil {
		t.Error(`ParseSecurityMode("senss+naive") accepted an unknown mode`)
	}
}

// TestNaiveBaselineCorrectButSlow: the §7.3 strawman must still compute
// correct results (its crypto round-trips) while costing far more than
// SENSS on the same workload.
func TestNaiveBaselineCorrectButSlow(t *testing.T) {
	const procs, iters = 4, 100
	senssCfg := smallConfig(procs, SecurityBus)
	senssCfg.Security.Senss.Perfect = true
	sm := New(senssCfg)
	sProgs, sCounter, _ := counterProgram(sm, procs, iters)
	senssRun, err := sm.Run(sProgs)
	if err != nil {
		t.Fatal(err)
	}

	nm := New(smallConfig(procs, SecurityNaive))
	nProgs, nCounter, _ := counterProgram(nm, procs, iters)
	naiveRun, err := nm.Run(nProgs)
	if err != nil {
		t.Fatal(err)
	}
	if got := nm.ReadWord(nCounter); got != procs*iters {
		t.Errorf("naive counter = %d", got)
	}
	if got := sm.ReadWord(sCounter); got != procs*iters {
		t.Errorf("senss counter = %d", got)
	}
	if naiveRun.Cycles <= senssRun.Cycles {
		t.Errorf("naive (%d cycles) not slower than SENSS (%d) — the §7.3 penalty vanished",
			naiveRun.Cycles, senssRun.Cycles)
	}
	if naiveRun.Label != "naive" {
		t.Errorf("label = %q", naiveRun.Label)
	}
}

// TestLazyIntegrityFasterButStillDetects reproduces the paper's remark
// that LHash-style lazy checking outperforms CHash while keeping the
// detection guarantee.
func TestLazyIntegrityFasterButStillDetects(t *testing.T) {
	build := func(lazy bool) (*Machine, uint64, []cpu.Program) {
		cfg := smallConfig(1, SecurityBusMem)
		cfg.Security.Integrity = true
		cfg.Security.Tree.Lazy = lazy
		cfg.Coherence.L2Size = 4 << 10
		m := New(cfg)
		const words = 4096
		arr := m.Alloc(words * 8)
		prog := func(c *cpu.Port) {
			for i := uint64(0); i < words; i++ {
				c.Store(arr+i*8, i)
			}
			for i := uint64(0); i < words; i += 8 {
				c.Load(arr + i*8)
			}
		}
		return m, arr, []cpu.Program{prog}
	}

	eager, _, progsE := build(false)
	eagerRun, err := eager.Run(progsE)
	if err != nil {
		t.Fatal(err)
	}
	lazy, _, progsL := build(true)
	lazyRun, err := lazy.Run(progsL)
	if err != nil {
		t.Fatal(err)
	}
	if h, why := lazy.Halted(); h {
		t.Fatalf("lazy false alarm: %s", why)
	}
	if lazyRun.Cycles >= eagerRun.Cycles {
		t.Errorf("lazy (%d cycles) not faster than eager CHash (%d)", lazyRun.Cycles, eagerRun.Cycles)
	}
	if lazyRun.HashOps == 0 {
		t.Error("lazy mode did no background hashing")
	}

	// Detection: tamper memory mid-run under lazy mode.
	m, arr, _ := build(true)
	const words = 4096
	prog := func(c *cpu.Port) {
		for i := uint64(0); i < words; i++ {
			c.Store(arr+i*8, i)
		}
		m.Store.Tamper(arr, 0x08)
		c.Load(arr)
	}
	if _, err := m.Run([]cpu.Program{prog}); err != nil {
		t.Fatal(err)
	}
	if halted, why := m.Halted(); !halted || !strings.Contains(why, "integrity") {
		t.Fatalf("lazy mode missed the tamper (halted=%v, %q)", halted, why)
	}
}

// TestBusTamperHaltsMachine wires a dropping adversary into a full machine
// and checks the SENSS alarm freezes it.
func TestBusTamperHaltsMachine(t *testing.T) {
	cfg := smallConfig(2, SecurityBus)
	cfg.Security.Senss.AuthInterval = 5
	m := New(cfg)
	progs, _, _ := counterProgram(m, 2, 200)
	m.Load()
	m.SetTamperer(core.NewScript(2, []core.Step{{Seq: 3, Action: core.ActDrop, Victim: 1}}))
	run, err := m.Run(progs)
	if err != nil {
		t.Fatal(err)
	}
	if !run.Halted {
		t.Fatal("bus tampering did not halt the machine")
	}
	if !strings.Contains(run.HaltReason, "senss") {
		t.Errorf("unexpected halt reason %q", run.HaltReason)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() uint64 {
		m := New(smallConfig(4, SecurityBus))
		progs, _, _ := counterProgram(m, 4, 50)
		r, err := m.Run(progs)
		if err != nil {
			t.Fatal(err)
		}
		return r.Cycles
	}
	if a, b := run(), run(); a != b {
		t.Errorf("nondeterministic: %d vs %d", a, b)
	}
}

func TestPerturbationChangesTiming(t *testing.T) {
	run := func(seed uint64) uint64 {
		cfg := smallConfig(4, SecurityOff)
		cfg.PerturbMax = 3
		cfg.PerturbSeed = seed
		m := New(cfg)
		progs, _, _ := counterProgram(m, 4, 50)
		r, err := m.Run(progs)
		if err != nil {
			t.Fatal(err)
		}
		return r.Cycles
	}
	if a, b := run(1), run(2); a == b {
		t.Error("perturbation seeds produced identical timing (variability study would be vacuous)")
	}
}

func TestMaskScarcityCostsCycles(t *testing.T) {
	run := func(masks int, perfect bool) stats.Run {
		cfg := smallConfig(4, SecurityBus)
		cfg.Security.Senss.Masks = masks
		cfg.Security.Senss.Perfect = perfect
		m := New(cfg)
		progs, _, _ := counterProgram(m, 4, 150)
		r, err := m.Run(progs)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	perfect := run(8, true)
	one := run(1, false)
	if one.MaskStalls == 0 {
		t.Error("single mask bank produced no stalls under contention")
	}
	if one.Cycles < perfect.Cycles {
		t.Errorf("1-mask run faster than perfect: %d < %d", one.Cycles, perfect.Cycles)
	}
}

// TestBarrierSynchronizes checks that no thread passes the barrier before
// all arrive.
func TestBarrierSynchronizes(t *testing.T) {
	const procs = 4
	m := New(smallConfig(procs, SecurityOff))
	barrierMem := m.Alloc(64)
	flag := m.Alloc(64)
	bar := psync.NewBarrier(barrierMem, procs)
	arrivals := make([]uint64, procs)
	departures := make([]uint64, procs)
	progs := make([]cpu.Program, procs)
	for i := 0; i < procs; i++ {
		i := i
		progs[i] = func(c *cpu.Port) {
			var ctx psync.Context
			c.Think(uint64(i) * 5000) // staggered arrivals
			arrivals[i] = c.Now()
			bar.Wait(c, &ctx)
			departures[i] = c.Now()
			c.Store(flag, 1)
		}
	}
	if _, err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
	var lastArrival uint64
	for _, a := range arrivals {
		if a > lastArrival {
			lastArrival = a
		}
	}
	for i, d := range departures {
		if d < lastArrival {
			t.Errorf("thread %d left the barrier at %d before the last arrival at %d", i, d, lastArrival)
		}
	}
}

// TestEngineProcAttackerInterleaving: a raw engine proc (not a CPU) can
// coexist with program procs — used by attack scenarios.
func TestEngineProcCoexists(t *testing.T) {
	m := New(smallConfig(1, SecurityOff))
	addr := m.Alloc(64)
	observed := uint64(0)
	m.Load()
	m.Engine.Spawn("observer", func(p *sim.Proc) {
		p.Sleep(100_000)
		observed = m.ReadWord(addr)
	})
	if _, err := m.Run([]cpu.Program{func(c *cpu.Port) {
		c.Store(addr, 123)
		c.Think(200_000)
	}}); err != nil {
		t.Fatal(err)
	}
	if observed != 123 {
		t.Errorf("observer saw %d", observed)
	}
}
