// Package machine assembles the full simulated SMP — processors, caches,
// snooping bus, memory — together with the SENSS security layer and the
// cache-to-memory protection (memsec pads, CHash integrity tree), from a
// single Config mirroring the paper's Figure 5.
package machine

import (
	"fmt"
	"math"

	"senss/internal/bus"
	"senss/internal/cache"
	"senss/internal/coherence"
	"senss/internal/core"
	"senss/internal/cpu"
	"senss/internal/crypto"
	"senss/internal/crypto/aes"
	"senss/internal/integrity"
	"senss/internal/mem"
	"senss/internal/memsec"
	"senss/internal/oracle"
	"senss/internal/rng"
	"senss/internal/sim"
	"senss/internal/stats"
	"senss/internal/trace"
)

// SecurityMode selects which protection layers are active.
type SecurityMode int

// Security modes.
const (
	// SecurityOff is the unprotected baseline SMP.
	SecurityOff SecurityMode = iota
	// SecurityBus enables SENSS bus encryption + authentication only
	// (the paper's Figures 6-9 configuration).
	SecurityBus
	// SecurityBusMem adds the cache-to-memory protection: OTP memory
	// encryption and, if Integrity is set, the CHash tree (Figure 10).
	SecurityBusMem
	// SecurityNaive replaces SENSS's bus protection with the §7.3
	// strawman: direct per-transfer encryption + unchained per-message
	// MACs. The ablation that quantifies why the paper dismisses it
	// runs it; it holds no SHU group.
	SecurityNaive
)

// String names the mode.
func (m SecurityMode) String() string {
	switch m {
	case SecurityOff:
		return "base"
	case SecurityBus:
		return "senss"
	case SecurityBusMem:
		return "senss+mem"
	case SecurityNaive:
		return "naive"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ParseSecurityMode is the inverse of String: it maps "base", "senss",
// "senss+mem" or "naive" to its mode.
func ParseSecurityMode(s string) (SecurityMode, error) {
	for m := SecurityOff; m <= SecurityNaive; m++ {
		if m.String() == s {
			return m, nil
		}
	}
	return SecurityOff, fmt.Errorf("unknown security mode %q (want base, senss, senss+mem, or naive)", s)
}

// dispatchKeyBits sizes the RSA processor keys of the FullDispatch
// handshake (reproduction scale; see internal/crypto/rsa).
const dispatchKeyBits = 512

// SecurityConfig bundles the protection-layer parameters. Mode selects
// the layers; every other field affects a simulation only where Mode
// enables the layer it parameterizes: Senss and FullDispatch under senss
// and senss+mem (Senss.Backend and Senss.AESLatency also under naive),
// Memsec, Integrity, Tree and TreeWarmBytes under senss+mem.
type SecurityConfig struct {
	Mode      SecurityMode
	Senss     core.Params
	Memsec    memsec.Params
	Integrity bool
	Tree      integrity.Params

	// TreeWarmBytes bounds how much of each L2 is pre-loaded with upper
	// hash-tree levels at program load (the paper's steady-state
	// assumption). Zero selects the default, L2 size / 32.
	TreeWarmBytes int

	// FullDispatch establishes every group through the complete §4.1
	// program-dispatch handshake — RSA processor key pairs, session-key
	// wrapping, image MAC, IV broadcast — instead of installing session
	// state directly. Slower to set up (RSA key generation) but exercises
	// the Figure 1 flow end to end.
	FullDispatch bool
}

// Config describes a machine.
type Config struct {
	Procs     int
	Coherence coherence.Params
	Bus       bus.Timing
	CPU       cpu.Params
	Security  SecurityConfig

	Seed  uint64 // machine randomness (keys, IVs); also the default workload seed
	Limit uint64 // cycle limit guarding against livelock (0 = default)

	// PerturbMax adds a deterministic 0..PerturbMax-cycle jitter to every
	// bus transaction (seeded by PerturbSeed) — the §7.8 variability study.
	PerturbMax  uint64
	PerturbSeed uint64

	// TraceLimit, when non-zero, records up to that many bus transactions
	// into Machine.Trace for offline analysis (cost-free observation).
	TraceLimit int

	// Oracle runs the untimed lockstep reference models (internal/oracle)
	// against every bus transaction and SENSS transfer, halting on the
	// first divergence. The checker charges zero cycles, so cycle counts
	// are identical with it on or off.
	Oracle bool
}

// Baseline returns c's insecure baseline: security off and every
// protection parameter reset to the defaults. Baseline runs are invariant
// to the protection parameters (New gates all security machinery on
// Mode), so every secured variant of one machine shape shares a single
// baseline — the farm simulates it once for Figures 6, 8 and 10 and each
// mask/interval point of 7 and 9.
func (c Config) Baseline() Config {
	c.Security = DefaultConfig().Security
	return c
}

// SmallGeometry scales c (DESIGN.md §2) to 4 KB L1s, 64 KB L2s and 2 KB
// of code, so that test-scale workloads exercise the whole hierarchy. The
// benchmark machine and senss-serve's default sessions use it.
func (c *Config) SmallGeometry() {
	c.Coherence.L1Size = 4 << 10
	c.Coherence.L2Size = 64 << 10
	c.CPU.CodeBytes = 2 << 10
}

// DefaultConfig returns the paper's Figure 5 parameters with 4 processors,
// a 1 MB L2, and security off.
func DefaultConfig() Config {
	return Config{
		Procs: 4,
		Coherence: coherence.Params{
			L1Size: 64 << 10, L1Ways: 2, L1Line: 32,
			L2Size: 1 << 20, L2Ways: 4, L2Line: 64,
			L1HitLat: 2, L2HitLat: 10, StoreLat: 2, RMWLat: 4,
		},
		Bus: bus.Timing{
			BusCycle: 10, C2CLat: 120, MemLat: 180,
			BytesPerBusCycle: 32, LineBytes: 64,
		},
		CPU: cpu.Params{
			OpGap:       1,
			CodeBytes:   16 << 10,
			IFetchBytes: 4,
		},
		Security: SecurityConfig{
			Mode:   SecurityOff,
			Senss:  core.DefaultParams(),
			Memsec: memsec.Params{AESLatency: 80, PerfectSNC: true, PadEntries: 8192},
			Tree:   integrity.Params{HashLatency: 160},
		},
		Seed:  1,
		Limit: 20_000_000_000,
	}
}

// Validate checks a configuration for the mistakes New would otherwise
// surface as panics deep inside construction.
func (c Config) Validate() error {
	if c.Procs <= 0 || c.Procs > core.MaxProcs {
		return fmt.Errorf("machine: Procs = %d, must be 1..%d", c.Procs, core.MaxProcs)
	}
	cc := c.Coherence
	if cc.L1Line > 0 && cc.L2Line > 0 && cc.L2Line%cc.L1Line != 0 {
		return fmt.Errorf("machine: L2 line (%d) must be a multiple of the L1 line (%d)",
			cc.L2Line, cc.L1Line)
	}
	if err := checkGeometry("L1", cc.L1Size, cc.L1Ways, cc.L1Line); err != nil {
		return err
	}
	if err := checkGeometry("L2", cc.L2Size, cc.L2Ways, cc.L2Line); err != nil {
		return err
	}
	if c.Coherence.L2Line != c.Bus.LineBytes {
		return fmt.Errorf("machine: L2 line (%d) must match the bus line size (%d)",
			c.Coherence.L2Line, c.Bus.LineBytes)
	}
	if c.Bus.BusCycle == 0 || c.Bus.BytesPerBusCycle <= 0 {
		return fmt.Errorf("machine: bus timing not configured")
	}
	if m := c.Security.Senss.Masks; m != 0 && m != 1 && m != 2 && m != 4 && m != 8 {
		return fmt.Errorf("machine: mask banks = %d, must be 1, 2, 4, or 8", m)
	}
	if b := c.Security.Senss.Backend; !crypto.Known(b) {
		return fmt.Errorf("machine: unknown crypto backend %q (have %v)", b, crypto.Backends())
	}
	return nil
}

// GeometryError reports a cache geometry that cannot be built: a size,
// associativity or line size that is not positive, or a line size or set
// count that is not a power of two (cache.New indexes sets by mask).
type GeometryError struct {
	Cache            string // "L1" (each of I and D) or "L2"
	Size, Ways, Line int
	Reason           string
}

func (e *GeometryError) Error() string {
	return fmt.Sprintf("machine: %s cache of %d bytes, %d ways, %d-byte lines: %s",
		e.Cache, e.Size, e.Ways, e.Line, e.Reason)
}

// checkGeometry returns a *GeometryError when cache.New would reject a
// cache of size bytes with the given ways and line size.
func checkGeometry(name string, size, ways, line int) error {
	bad := func(format string, args ...any) error {
		return &GeometryError{Cache: name, Size: size, Ways: ways, Line: line, Reason: fmt.Sprintf(format, args...)}
	}
	if size <= 0 || ways <= 0 || line <= 0 {
		return bad("size, ways and line size must be positive")
	}
	if line&(line-1) != 0 {
		return bad("line size %d is not a power of two", line)
	}
	// cache.New folds a cache smaller than one set into a single set.
	if sets := size / line / ways; sets > 0 && sets&(sets-1) != 0 {
		return bad("set count %d is not a power of two", sets)
	}
	return nil
}

// dataBase is where the bump allocator starts. Low memory is left unused
// so address zero stays out of the working set.
const dataBase = uint64(1) << 16

// Machine is an assembled simulated SMP.
type Machine struct {
	Config Config

	Engine *sim.Engine
	Store  *mem.Store
	Bus    *bus.Bus
	Nodes  []*coherence.Node
	Senss  *core.System
	Memsec *memsec.Layer
	Tree   *integrity.Tree
	Groups *core.GroupTable
	Trace  *trace.Recorder // non-nil when Config.TraceLimit > 0
	Oracle *oracle.Checker // non-nil when Config.Oracle is set
	GID    int

	// SwapCount counts §4.2 group context switches (RunTimeShared).
	SwapCount int

	rand      *rng.Rand
	allocNext uint64
	loaded    bool
	started   bool
	planned   [][]int  // processor subsets for planned SENSS groups
	nodeCode  []uint64 // per-processor text region base (per-group text)
	procKeys  map[int]*core.ProcessorKeys
	//senss-lint:secret
	groupKeys map[int]aes.Block // session keys, kept for §4.2 swap-in
	naive     *naiveHook        // §7.3 strawman baseline, when configured

	hashFetches uint64 // hash-tree lines supplied by memory (integrityPort)
}

// New builds a machine from cfg. Call Alloc/InitWord to lay out the
// workload, then Run.
func New(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Machine{
		Config:    cfg,
		Engine:    sim.NewEngine(),
		Store:     mem.New(),
		Groups:    core.NewGroupTable(),
		rand:      rng.New(cfg.Seed ^ 0x5e5e5e5e),
		allocNext: dataBase,
		GID:       -1,
	}
	if cfg.Limit > 0 {
		m.Engine.SetLimit(cfg.Limit)
	}

	// Memory port chain: integrity pending-marker → memsec pads → raw.
	var port bus.MemoryPort = &bus.SimpleMemory{Backing: m.Store}
	if cfg.Security.Mode == SecurityBusMem {
		key := aes.Block(m.rand.Block16())
		cipher := crypto.MustBackend(cfg.Security.Senss.Backend, key)
		m.Memsec = memsec.New(m.Store, cipher, cfg.Procs, cfg.Security.Memsec)
		port = m.Memsec
	}
	if cfg.Security.Mode == SecurityBusMem && cfg.Security.Integrity {
		// The tree is sized at Load time; create a placeholder port now.
		port = &integrityPort{m: m, inner: port}
	}
	m.Bus = bus.New(m.Engine, cfg.Bus, port)

	for i := 0; i < cfg.Procs; i++ {
		n := coherence.NewNode(i, cfg.Coherence, m.Bus)
		m.Nodes = append(m.Nodes, n)
	}
	switch cfg.Security.Mode {
	case SecurityBus, SecurityBusMem:
		m.Senss = core.NewSystem(m.Engine, m.Bus, cfg.Procs, cfg.Security.Senss, true)
	case SecurityNaive:
		m.naive = newNaiveHook(m.Bus, crypto.MustBackend(cfg.Security.Senss.Backend, aes.Block(m.rand.Block16())), cfg.Security.Senss.AESLatency)
		m.Bus.AttachHook(m.naive)
	}
	if cfg.Oracle {
		// The checker rides the hook chain after the SENSS layer (so it
		// sees the requester's decrypted payload) and before jitter/trace.
		m.Oracle = oracle.New(oracle.Options{
			Procs: cfg.Procs,
			Senss: cfg.Security.Senss,
		})
		m.Oracle.SetEngine(m.Engine)
		m.Oracle.SetNodes(m.Nodes)
		m.Oracle.SetMeta(cfg.Seed, fmt.Sprintf(
			"procs=%d l2=%d line=%d security=%s masks=%d interval=%d",
			cfg.Procs, cfg.Coherence.L2Size, cfg.Coherence.L2Line,
			cfg.Security.Mode, cfg.Security.Senss.Masks, cfg.Security.Senss.AuthInterval))
		if m.Senss != nil {
			m.Senss.SetObserver(m.Oracle)
			m.Oracle.SetAlarm(m.Senss.Detected)
		}
		m.Bus.AttachHook(m.Oracle)
		m.Bus.OnCommitStore = m.Oracle.OnCommitStore
	}
	if cfg.PerturbMax > 0 {
		m.Bus.AttachHook(&jitterHook{r: rng.New(cfg.PerturbSeed), max: cfg.PerturbMax})
	}
	if cfg.TraceLimit > 0 {
		m.Trace = trace.NewRecorder(cfg.TraceLimit)
		m.Bus.AttachHook(m.Trace)
	}
	return m
}

// integrityPort counts hash-tree lines fetched from memory and marks
// writeback commits as in-flight tree updates before delegating to the
// wrapped port.
type integrityPort struct {
	m     *Machine
	inner bus.MemoryPort
}

// Fetch runs only for Rd/RdX transactions that memory supplies.
//
// senss-lint:hotpath
func (p *integrityPort) Fetch(t *bus.Transaction, dst []byte) uint64 {
	if t.Addr >= integrity.HashBase {
		p.m.hashFetches++
	}
	return p.inner.Fetch(t, dst)
}

// senss-lint:hotpath
func (p *integrityPort) Store(t *bus.Transaction, src []byte) uint64 {
	if p.m.Tree != nil {
		p.m.Tree.BeginUpdate(t.Addr)
	}
	return p.inner.Store(t, src)
}

// jitterHook perturbs bus timing for the §7.8 variability study.
type jitterHook struct {
	r   *rng.Rand
	max uint64
}

func (j *jitterHook) OnTransaction(p *sim.Proc, t *bus.Transaction) uint64 {
	return j.r.Uint64n(j.max + 1)
}

// protectionHooks glues memsec pad coherence and the integrity tree into
// the nodes' miss path.
type protectionHooks struct{ m *Machine }

func (h *protectionHooks) AfterMemoryFill(p *sim.Proc, n *coherence.Node, t *bus.Transaction) {
	if h.m.Memsec != nil {
		if addr, ok := h.m.Memsec.TakePendingRequest(n.ID); ok {
			// The SNC missed: fetch the fresh sequence number on the bus.
			n.Signal(p, bus.PadReq, addr)
		}
	}
	if h.m.Tree != nil {
		h.m.Tree.AfterMemoryFill(p, n, t)
	}
}

func (h *protectionHooks) AfterWriteBack(p *sim.Proc, n *coherence.Node, addr uint64, data []byte) {
	if h.m.Memsec != nil {
		// The pad changed: broadcast the invalidate (or, in the §6.1
		// write-update variant, the fresh sequence number).
		h.m.Memsec.NoteInvalidate()
		kind := bus.PadInv
		if h.m.Memsec.WriteUpdate() {
			kind = bus.PadUpd
		}
		n.Signal(p, kind, addr)
	}
	if h.m.Tree != nil {
		h.m.Tree.AfterWriteBack(p, n, addr, data)
	}
}

// Alloc reserves n bytes of simulated memory, line-aligned, and returns
// the base address. Must be called before Load/Run.
func (m *Machine) Alloc(n uint64) uint64 {
	if m.loaded {
		panic("machine: Alloc after Load")
	}
	base := m.allocNext
	n = (n + mem.LineSize - 1) &^ uint64(mem.LineSize-1)
	m.allocNext += n
	return base
}

// InitWord writes an initial (plaintext) value, bypassing timing. Must be
// called before Load/Run.
func (m *Machine) InitWord(addr, v uint64) {
	if m.loaded {
		panic("machine: InitWord after Load")
	}
	m.Store.WriteWord(addr, v)
}

// InitFloat writes an initial float64 value.
func (m *Machine) InitFloat(addr uint64, v float64) {
	m.InitWord(addr, math.Float64bits(v))
}

// Load freezes the memory image: allocates the code region, builds the
// integrity tree, encrypts memory, and establishes the SENSS group. It is
// called automatically by Run.
func (m *Machine) Load() {
	if m.loaded {
		return
	}
	// Text regions for the instruction-fetch model: one per planned group
	// (each application ships its own encrypted program image), or one
	// shared region for the default single-application machine. Cross-
	// group code sharing would otherwise create cache-to-cache transfers
	// no group session could cover.
	m.nodeCode = make([]uint64, m.Config.Procs)
	if m.Config.CPU.CodeBytes > 0 {
		if len(m.planned) > 1 {
			for _, procs := range m.planned {
				base := m.Alloc(m.Config.CPU.CodeBytes)
				for _, pid := range procs {
					m.nodeCode[pid] = base
				}
			}
		} else {
			base := m.Alloc(m.Config.CPU.CodeBytes)
			for i := range m.nodeCode {
				m.nodeCode[i] = base
			}
		}
	}
	m.loaded = true

	dataSize := m.allocNext - dataBase
	if m.Config.Security.Mode == SecurityBusMem && m.Config.Security.Integrity {
		m.Tree = integrity.New(m.Engine, dataBase, dataSize, m.Config.Security.Tree)
		m.Tree.ReadCoherent = m.ReadCoherentLine
		m.Tree.Build(m.Store, func(addr uint64, dst []byte) { m.Store.ReadLine(addr, dst) })
		// Pre-load the upper tree levels into every L2, the paper's
		// steady-state assumption: a node found in L2 is trusted and
		// terminates the verification walk.
		warm := m.Config.Security.TreeWarmBytes
		if warm == 0 {
			warm = m.Config.Coherence.L2Size / 32
		}
		buf := make([]byte, mem.LineSize)
		for _, addr := range m.Tree.WarmLines(warm) {
			m.Store.ReadLine(addr, buf)
			for _, n := range m.Nodes {
				l, _ := n.L2.Insert(addr, cache.Shared)
				copy(l.Data, buf)
			}
		}
	}
	if m.Memsec != nil {
		m.Memsec.EncryptAll()
	}
	if m.Memsec != nil || m.Tree != nil {
		hooks := &protectionHooks{m: m}
		for _, n := range m.Nodes {
			n.Hooks = hooks
		}
	}
	if m.Senss != nil {
		// Default: one group spanning every processor (the usual single-
		// application machine). PlanGroup overrides with explicit subsets.
		if len(m.planned) == 0 {
			all := make([]int, m.Config.Procs)
			for i := range all {
				all[i] = i
			}
			m.planned = [][]int{all}
		}
		for _, procs := range m.planned {
			gid := m.establishGroup(procs)
			if m.GID < 0 {
				m.GID = gid // first group, for single-app convenience
			}
		}
	}
}

// PlanGroup reserves a SENSS group over the given processor subset —
// the paper's Figure 1 scenario of several applications, each trusting
// only its own processors. Must be called before Load; subsets must be
// disjoint (a processor runs one application at a time here).
func (m *Machine) PlanGroup(procs []int) {
	if m.loaded {
		panic("machine: PlanGroup after Load")
	}
	if m.Senss == nil {
		panic("machine: PlanGroup requires SENSS")
	}
	for _, prev := range m.planned {
		for _, a := range prev {
			for _, b := range procs {
				if a == b {
					panic(fmt.Sprintf("machine: processor %d already in a planned group", a))
				}
			}
		}
	}
	m.planned = append(m.planned, append([]int(nil), procs...))
}

// establishGroup allocates a GID and installs the session on the members,
// either directly or through the full §4.1 dispatch handshake.
func (m *Machine) establishGroup(procs []int) int {
	members := core.MemberMask(procs...)
	var gid int
	if m.Config.Security.FullDispatch {
		gid = m.dispatchGroup(procs, members)
	} else {
		var err error
		gid, err = m.Groups.Allocate(members)
		if err != nil {
			panic(err)
		}
		key := aes.Block(m.rand.Block16())
		encIV := aes.Block(m.rand.Block16())
		authIV := aes.Block(m.rand.Block16())
		if err := m.Senss.Establish(gid, key, members, encIV, authIV); err != nil {
			panic(err)
		}
		if m.groupKeys == nil {
			m.groupKeys = make(map[int]aes.Block)
		}
		m.groupKeys[gid] = key
	}
	for _, pid := range procs {
		m.Nodes[pid].GID = gid
	}
	return gid
}

// dispatchGroup runs the complete program-dispatch flow: mint (or reuse)
// each member's sealed RSA key pair, package a program image under a fresh
// session key wrapped per member, unwrap on every member, and establish
// the chains from broadcast IVs.
func (m *Machine) dispatchGroup(procs []int, members uint32) int {
	if m.procKeys == nil {
		m.procKeys = make(map[int]*core.ProcessorKeys)
	}
	dist := core.NewDistributor(m.rand.Uint64())
	for _, pid := range procs {
		pk, ok := m.procKeys[pid]
		if !ok {
			var err error
			pk, err = core.GenerateProcessorKeys(m.rand, dispatchKeyBits)
			if err != nil {
				panic(err)
			}
			m.procKeys[pid] = pk
		}
		dist.RegisterProcessor(pid, pk.Public)
	}
	image := []byte(fmt.Sprintf("senss program image for processors %v", procs))
	pkg, _, err := dist.Dispatch(image, members)
	if err != nil {
		panic(err)
	}
	gid, err := core.NewDispatcher(m.rand.Uint64()).Install(m.Senss, m.Groups, pkg, m.procKeys)
	if err != nil {
		panic(err)
	}
	return gid
}

// Run executes one program per processor (len(programs) ≤ Procs) to
// completion and returns the measurements.
func (m *Machine) Run(programs []cpu.Program) (stats.Run, error) {
	if err := m.Start(programs); err != nil {
		return stats.Run{}, err
	}
	err := m.Engine.Run()
	run := m.Collect()
	if err != nil {
		return run, err
	}
	return run, nil
}

// Start loads the memory image and spawns one program per processor
// (len(programs) ≤ Procs) without running the simulation: the caller
// drives execution through Step (or Engine.Run). Run is exactly
// Start + Engine.Run, so a stepped machine retires the identical event
// sequence a monolithic run would.
func (m *Machine) Start(programs []cpu.Program) error {
	if m.started {
		return fmt.Errorf("machine: Start called twice")
	}
	if len(programs) > m.Config.Procs {
		return fmt.Errorf("machine: %d programs for %d processors", len(programs), m.Config.Procs)
	}
	m.started = true
	m.Load()
	for i, prog := range programs {
		if prog == nil {
			continue
		}
		m.spawnProgram(i, fmt.Sprintf("cpu%d", i), prog, nil, nil)
	}
	return nil
}

// spawnProgram runs prog on processor i as a proc named name, parking at
// gate (if non-nil) between operations; exit, if non-nil, runs when prog
// returns (cpu.Spawn).
func (m *Machine) spawnProgram(i int, name string, prog cpu.Program, gate *cpu.Gate, exit func()) {
	params := m.Config.CPU
	params.CodeBase = m.nodeCode[i]
	params.Gate = gate
	cpu.Spawn(m.Engine, name, m.Nodes[i], params, prog, exit)
}

// Step advances a started machine by at most maxCycles simulated cycles,
// reporting whether the simulation completed. Slice boundaries never
// change what the simulation computes (sim.Engine.RunUntil).
func (m *Machine) Step(maxCycles uint64) (done bool, err error) {
	deadline := m.Engine.Now() + maxCycles
	if deadline < m.Engine.Now() { // overflow: run to completion
		deadline = ^uint64(0)
	}
	return m.Engine.RunUntil(deadline)
}

// Abort tears down a partially executed machine: every simulated
// processor is unwound, pending events are dropped, and Shutdown
// reclaims and zeroizes the SENSS group sessions. Counters stay readable
// (Collect); the machine cannot run again.
func (m *Machine) Abort() {
	m.Engine.Abort()
	m.Shutdown()
}

// Collect gathers the current counters into a stats.Run.
func (m *Machine) Collect() stats.Run {
	r := stats.Run{
		Procs:      m.Config.Procs,
		Label:      m.Config.Security.Mode.String(),
		Cycles:     m.Engine.Now(),
		BusTotal:   m.Bus.Stats.Total(),
		BusByKind:  make(map[string]uint64),
		C2C:        m.Bus.Stats.C2CCount,
		MemFills:   m.Bus.Stats.MemCount,
		BusBusy:    m.Bus.Stats.BusyCycles,
		BusData:    m.Bus.Stats.DataBytes,
		ExtraBus:   m.Bus.Stats.ExtraCycles,
		ArbWaits:   m.Bus.Stats.ArbWaits,
		ArbWaitCyc: m.Bus.Stats.ArbWaitCycles,
		ArbWaitMax: m.Bus.Stats.ArbWaitMax,
	}
	for k := 0; k < bus.NumKinds; k++ {
		if c := m.Bus.Stats.Count[k]; c > 0 {
			r.BusByKind[bus.Kind(k).String()] = c
		}
	}
	for _, n := range m.Nodes {
		r.L1DHits += n.L1D.Hits
		r.L1DMisses += n.L1D.Misses
		r.L1IHits += n.L1I.Hits
		r.L1IMisses += n.L1I.Misses
		r.L2Hits += n.L2.Hits
		r.L2Misses += n.L2.Misses
		r.Loads += n.Stats.Loads
		r.Stores += n.Stats.Stores
		r.RMWs += n.Stats.RMWs
	}
	if m.Senss != nil {
		r.AuthMsgs = m.Senss.Stats.AuthMsgs
		r.MaskStalls = m.Senss.Stats.MaskStalls
		r.AuthUps = m.Senss.Stats.IntervalUps
		r.AuthDowns = m.Senss.Stats.IntervalDowns
	}
	if m.naive != nil {
		r.AuthMsgs = m.naive.Transfers // one per-message MAC per transfer
	}
	if m.Memsec != nil {
		r.PadMsgs = m.Memsec.Stats.Invalidates + m.Memsec.Stats.Requests
		r.PadHits = m.Memsec.Stats.PadHits
		r.PadMisses = m.Memsec.Stats.PadMisses
	}
	if m.Tree != nil {
		r.HashOps = m.Tree.Stats.HashOps
		r.HashFetches = m.hashFetches
	}
	if halted, why := m.Engine.Halted(); halted {
		r.Halted = true
		r.HaltReason = why
	}
	return r
}

// ReadWord returns the current value of an aligned word, preferring cached
// copies (which may be dirty) over memory, decrypting as needed — for
// workload validation after a run.
func (m *Machine) ReadWord(addr uint64) uint64 {
	for _, n := range m.Nodes {
		if v, ok := n.PeekWord(addr); ok {
			return v
		}
	}
	if m.Memsec != nil {
		return m.Memsec.ReadWordDecrypted(addr)
	}
	return m.Store.ReadWord(addr)
}

// ReadFloat returns the float64 at addr.
func (m *Machine) ReadFloat(addr uint64) float64 {
	return math.Float64frombits(m.ReadWord(addr))
}

// ReadCoherentLine reads the current coherent value of a line — a dirty
// cached copy when one exists, else decrypted memory — without timing.
// The lazy integrity verifier and validation tooling use it.
func (m *Machine) ReadCoherentLine(addr uint64, dst []byte) {
	for _, n := range m.Nodes {
		if l := n.L2.Peek(addr); l != nil {
			copy(dst, l.Data)
			return
		}
	}
	m.ReadMemLine(addr, dst)
}

// ReadMemLine reads the decrypted memory image of a line (NOT looking at
// caches) — the view the invariant checker needs.
func (m *Machine) ReadMemLine(addr uint64, dst []byte) {
	if m.Memsec != nil {
		m.Memsec.ReadLineDecrypted(addr, dst)
		return
	}
	m.Store.ReadLine(addr, dst)
}

// CheckInvariants verifies the MOESI invariants of the current state.
func (m *Machine) CheckInvariants() error {
	return coherence.CheckInvariants(m.Nodes, m.ReadMemLine)
}

// Halted reports whether a security alarm froze the machine.
func (m *Machine) Halted() (bool, string) { return m.Engine.Halted() }

// Shutdown reclaims every SENSS group (paper §5.2: GIDs return to the
// table on program completion; queued applications would receive them).
// The machine's measurements remain readable afterwards.
func (m *Machine) Shutdown() {
	if m.Senss == nil {
		return
	}
	for _, procs := range m.planned {
		if len(procs) == 0 {
			continue
		}
		gid := m.Nodes[procs[0]].GID
		if gid < 0 || !m.Groups.Occupied(gid) {
			continue
		}
		for _, pid := range procs {
			m.Senss.SHU(pid).Leave(gid)
			m.Nodes[pid].GID = -1
		}
		m.Groups.Release(gid)
	}
	m.GID = -1
}

// SetTamperer installs a bus adversary (requires SecurityBus or higher).
func (m *Machine) SetTamperer(t core.Tamperer) {
	if m.Senss == nil {
		panic("machine: tamperer requires SENSS")
	}
	m.Senss.SetTamperer(t)
}

// Rand exposes the machine's deterministic random stream for workload
// setup.
func (m *Machine) Rand() *rng.Rand { return m.rand }
