package senss

// Dynamic half of the hotpath discipline (DESIGN.md §13): the static
// analyzer proves the steady state allocates nothing by construction;
// these tests measure it. A resident driver proc keeps one engine, bus,
// and coherence node alive across testing.AllocsPerRun iterations, so the
// measurement sees only per-operation cost — never engine or goroutine
// setup. Budgets — including the miss paths, which are pooled since the
// fillState/scratch-buffer rework — are pinned in
// testdata/alloc_budget.json; they only ratchet down. Raising one is a
// deliberate, reviewed act made in the same commit as the code that
// needs it.

import (
	"encoding/json"
	"os"
	"testing"

	"senss/internal/bus"
	"senss/internal/coherence"
	"senss/internal/cpu"
	"senss/internal/crypto"
	"senss/internal/crypto/aes"
	"senss/internal/mem"
	"senss/internal/memsec"
	"senss/internal/psync"
	"senss/internal/rng"
	"senss/internal/sim"
)

// allocRig owns a live simulation whose single proc executes memory
// operations on demand. The proc blocks on work while holding the run
// token; each run call hands it a batch and waits for completion, so the
// simulated clock advances only inside measured regions.
type allocRig struct {
	work chan int
	done chan struct{}
	fin  chan error
	op   int // persistent operation counter, so batches keep advancing the working set
}

// startAllocRig builds a one-node machine (small caches so miss scenarios
// stay cheap) and parks a driver proc executing body per operation. A
// non-empty backend makes the memory port the memsec encryption layer
// running that crypto backend.
func startAllocRig(body func(p *sim.Proc, n *coherence.Node, op int), backend string) *allocRig {
	eng := sim.NewEngine()
	store := mem.New()
	var port bus.MemoryPort = &bus.SimpleMemory{Backing: store}
	if backend != "" {
		r := rng.New(7)
		port = memsec.New(store, crypto.MustBackend(backend, aes.Block(r.Block16())), 1,
			memsec.Params{AESLatency: 80, PerfectSNC: true, PadEntries: 8192})
	}
	b := bus.New(eng, allocTiming, port)
	n := coherence.NewNode(0, allocParams, b)

	rig := newAllocRig()
	eng.Spawn("alloc-driver", func(p *sim.Proc) {
		for nops := range rig.work {
			for i := 0; i < nops; i++ {
				body(p, n, rig.op)
				rig.op++
			}
			rig.done <- struct{}{}
		}
	})
	go func() { rig.fin <- eng.Run() }()
	return rig
}

// allocParams and allocTiming are the rigs' node and bus geometry.
var (
	allocParams = coherence.Params{
		L1Size: 4 << 10, L1Ways: 2, L1Line: 32,
		L2Size: 16 << 10, L2Ways: 4, L2Line: 64,
		L1HitLat: 2, L2HitLat: 10, StoreLat: 2, RMWLat: 4,
	}
	allocTiming = bus.Timing{
		BusCycle: 10, C2CLat: 120, MemLat: 180,
		BytesPerBusCycle: 32, LineBytes: 64,
	}
)

func newAllocRig() *allocRig {
	return &allocRig{
		work: make(chan int),
		done: make(chan struct{}),
		fin:  make(chan error, 1),
	}
}

// startSpinRig builds a two-node machine whose operation is one
// request/acknowledge handshake through cpu.Port.SpinUntil: the driver
// stores a request word and spins on the acknowledgement, while a
// responder — spinning on the request in turn — computes for 400 cycles
// in short steps before it acknowledges. Most of the driver's wakes are
// spin probes taken in engine context, inside the responder's dispatch;
// the rest is the two line transfers per handshake.
func startSpinRig() *allocRig {
	const req, ack, backoff = 0x1000, 0x2000, 10
	eng := sim.NewEngine()
	b := bus.New(eng, allocTiming, &bus.SimpleMemory{Backing: mem.New()})
	params := cpu.Params{OpGap: 1, CodeBase: 0x8000, CodeBytes: 2 << 10, IFetchBytes: 4}
	rig := newAllocRig()
	closing := false
	cpu.Spawn(eng, "alloc-driver", coherence.NewNode(0, allocParams, b), params, func(c *cpu.Port) {
		for nops := range rig.work {
			for i := 0; i < nops; i++ {
				rig.op++
				c.Store(req, uint64(rig.op))
				c.SpinUntil(ack, uint64(rig.op), backoff)
			}
			rig.done <- struct{}{}
		}
		closing = true
		c.Store(req, uint64(rig.op+1))
	}, nil)
	cpu.Spawn(eng, "alloc-responder", coherence.NewNode(1, allocParams, b), params, func(c *cpu.Port) {
		for k := uint64(1); ; k++ {
			c.SpinUntil(req, k, backoff)
			if closing {
				return
			}
			for i := 0; i < 20; i++ {
				c.Think(20)
			}
			c.Store(ack, k)
		}
	}, nil)
	go func() { rig.fin <- eng.Run() }()
	return rig
}

// startPsyncRig builds a two-node machine whose operation is one round
// of psync traffic through cpu.Port: the driver takes and releases a
// spinlock, then meets a responder at a two-party barrier, while the
// responder, between barriers, holds the same lock for 50 cycles. The
// lock is contended, so the round mixes failed and successful CAS
// attempts, spin-waits on the lock word and on the barrier sense, and
// the barrier's atomic Add.
func startPsyncRig() *allocRig {
	const lockAddr, barAddr, dataAddr = 0x1000, 0x2000, 0x3000
	eng := sim.NewEngine()
	b := bus.New(eng, allocTiming, &bus.SimpleMemory{Backing: mem.New()})
	params := cpu.Params{OpGap: 1, CodeBase: 0x8000, CodeBytes: 2 << 10, IFetchBytes: 4}
	lock := psync.NewLock(lockAddr)
	bar := psync.NewBarrier(barAddr, 2)
	rig := newAllocRig()
	closeAt := 0 // the barrier episode after which the responder retires
	cpu.Spawn(eng, "alloc-driver", coherence.NewNode(0, allocParams, b), params, func(c *cpu.Port) {
		var ctx psync.Context
		episodes := 0
		for nops := range rig.work {
			for i := 0; i < nops; i++ {
				rig.op++
				lock.Acquire(c)
				c.Store(dataAddr, uint64(rig.op))
				lock.Release(c)
				bar.Wait(c, &ctx)
				episodes++
			}
			rig.done <- struct{}{}
		}
		closeAt = episodes + 1
		bar.Wait(c, &ctx)
	}, nil)
	cpu.Spawn(eng, "alloc-responder", coherence.NewNode(1, allocParams, b), params, func(c *cpu.Port) {
		var ctx psync.Context
		for episode := 1; ; episode++ {
			bar.Wait(c, &ctx)
			if episode == closeAt {
				return
			}
			lock.Acquire(c)
			c.Think(50)
			lock.Release(c)
		}
	}, nil)
	go func() { rig.fin <- eng.Run() }()
	return rig
}

// run executes one batch of nops operations inside the simulation.
func (r *allocRig) run(nops int) {
	r.work <- nops
	<-r.done
}

// stop retires the driver proc and drains the engine.
func (r *allocRig) stop(t *testing.T) {
	t.Helper()
	close(r.work)
	if err := <-r.fin; err != nil {
		t.Fatalf("alloc rig engine: %v", err)
	}
}

// steadyBody touches a 4 KiB working set (64 lines, resident in the
// 16 KiB L2) with loads, stores, and RMWs: after warmup every operation
// is a cache hit — the simulator's steady state.
func steadyBody(p *sim.Proc, n *coherence.Node, op int) {
	addr := 0x1000 + uint64(op%64)*64
	n.Load(p, addr)
	n.Store(p, addr, uint64(op))
	n.Add(p, addr, 1)
}

// missBody cycles a 64 KiB working set (1024 lines, 4× the L2) so every
// operation misses: fills, evictions, and dirty writebacks on the store
// half.
func missBody(p *sim.Proc, n *coherence.Node, op int) {
	addr := 0x1000 + uint64(op%1024)*64
	if op%2 == 0 {
		n.Load(p, addr)
	} else {
		n.Store(p, addr, uint64(op))
	}
}

// calqueueBody drives the engine scheduler through both tiers of the
// calendar queue: the short sleep lands in the 1024-bucket wheel, the
// long one overflows past the wheel horizon into the spill heap, and the
// timer callback scheduled 2048 cycles out exercises Engine.After through
// the overflow path (it migrates into the wheel on a later rotation).
// The callback closure captures nothing, so it is a singleton — any
// measured allocation comes from the queue itself.
func calqueueBody(p *sim.Proc, n *coherence.Node, op int) {
	p.Sleep(uint64(op%7) + 1)
	p.Sleep(1024 + uint64(op%513))
	p.Engine().After(2048, func() {})
}

// allocBudget is the schema of testdata/alloc_budget.json.
type allocBudget struct {
	Comment string             `json:"comment"`
	Budgets map[string]float64 `json:"budgets"`
}

func loadAllocBudgets(t *testing.T) map[string]float64 {
	t.Helper()
	raw, err := os.ReadFile("testdata/alloc_budget.json")
	if err != nil {
		t.Fatalf("reading alloc budget: %v", err)
	}
	var b allocBudget
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatalf("parsing alloc budget: %v", err)
	}
	if len(b.Budgets) == 0 {
		t.Fatal("alloc budget file has no budgets")
	}
	return b.Budgets
}

// measureAllocsPerOp reports average heap allocations per simulated
// memory operation for a scenario, after warming caches, freelists, and
// scratch buffers with warmup operations.
func measureAllocsPerOp(t *testing.T, rig *allocRig, warmup, batch int) float64 {
	t.Helper()
	rig.run(warmup)
	avg := testing.AllocsPerRun(20, func() { rig.run(batch) })
	return avg / float64(batch)
}

// TestBusSteadyStateZeroAlloc is the hard gate: once warm, the bus,
// coherence, and sim-engine hit paths allocate nothing — zero allocations
// per operation, not merely few. If this fails, something on a
// //senss-lint:hotpath route started allocating (or a waiver hid a
// steady-state allocation the analyzer could not prove away).
func TestBusSteadyStateZeroAlloc(t *testing.T) {
	budgets := loadAllocBudgets(t)
	if want, ok := budgets["bus_steady_state"]; !ok || want != 0 {
		t.Fatalf("alloc budget for bus_steady_state must be pinned at 0, got %v (present=%v)", want, ok)
	}
	rig := startAllocRig(steadyBody, "")
	defer rig.stop(t)
	perOp := measureAllocsPerOp(t, rig, 1024, 192)
	if perOp != 0 {
		t.Errorf("steady-state allocations = %v per op, want exactly 0 — "+
			"a hot path regressed; run `make hotpath` and check recent waivers", perOp)
	}
}

// TestAllocBudgets pins the deliberately-allocating paths (miss fills,
// writebacks, the memsec port) to the recorded budgets. Exceeding one
// means a new allocation crept onto a miss path; deliberate changes must
// update testdata/alloc_budget.json in the same commit.
func TestAllocBudgets(t *testing.T) {
	budgets := loadAllocBudgets(t)
	rigFor := func(body func(p *sim.Proc, n *coherence.Node, op int), backend string) func() *allocRig {
		return func() *allocRig { return startAllocRig(body, backend) }
	}
	scenarios := []struct {
		name   string
		budget string
		start  func() *allocRig
	}{
		{"coherence_miss_fill", "coherence_miss_fill", rigFor(missBody, "")},
		// The memsec budget must hold under every registered crypto
		// backend: the pad kernel is the same hotpath either way.
		{"memsec_miss_fill_ref", "memsec_miss_fill", rigFor(missBody, crypto.Ref)},
		{"memsec_miss_fill_stdlib", "memsec_miss_fill", rigFor(missBody, crypto.Stdlib)},
		// Calendar-queue overflow tier: far-future sleeps and timers spill
		// into the heap and migrate back into the wheel on rotation. Once
		// the heap and bucket slices reach steady capacity nothing on this
		// route allocates, and the budget pins that at zero.
		{"calqueue_overflow", "calqueue_overflow", rigFor(calqueueBody, "")},
		// Spin probes run as wake continuations in engine context, and
		// the handshake's line transfers use the pooled miss path: a
		// hard zero.
		{"spin_probe", "spin_probe", startSpinRig},
		// psync locks and barriers commit their CAS and Add at the
		// coherence point from operands in the pooled fill state: a hard
		// zero.
		{"psync_lock_barrier", "psync_lock_barrier", startPsyncRig},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			want, ok := budgets[sc.budget]
			if !ok {
				t.Fatalf("no alloc budget recorded for %s", sc.budget)
			}
			rig := sc.start()
			defer rig.stop(t)
			perOp := measureAllocsPerOp(t, rig, 2048, 256)
			if perOp > want {
				t.Errorf("%s allocates %.2f per op, budget %.2f — an off-hotpath route grew; "+
					"if deliberate, update testdata/alloc_budget.json in this commit",
					sc.name, perOp, want)
			}
		})
	}
}
