// Package fuzzing hosts the deterministic decoders and runners behind the
// native `go test -fuzz` targets.
//
// Three byte-string grammars are fuzzed, each against the lockstep
// differential oracle (internal/oracle):
//
//   - schedules: per-processor memory-access sequences driving a full
//     secured machine (FuzzSchedule),
//   - adversary scripts: drop/corrupt/reorder/replay/spoof step lists for
//     the protocol-level SENSS rig, with the ground-truth property that a
//     deviated observation stream MUST be detected and an undeviated run
//     MUST stay silent and oracle-clean — never both silent
//     (FuzzAdversary),
//   - machine configurations: procs × L2 × mask banks × auth interval ×
//     auth mode shapes, SENSS or the naive baseline (FuzzConfig).
//
// Every runner is a pure function of its input bytes — fixed seeds, no
// wall clock, no goroutines — so any crasher the fuzzer finds replays
// byte-for-byte as a plain corpus entry: `go test ./internal/fuzzing`
// replays every file under testdata/fuzz/<Target>/, and
// `go test ./internal/fuzzing -run 'FuzzSchedule/<entry>'` replays one.
package fuzzing

import (
	"fmt"

	"senss/internal/attack"
	"senss/internal/core"
	"senss/internal/cpu"
	"senss/internal/crypto"
	"senss/internal/machine"
	"senss/internal/oracle"
)

// rigSeed keys the deterministic session material (keys, IVs) of every
// fuzz rig. Changing it invalidates nothing but makes old crashers
// non-reproducible — treat it like a golden value.
const rigSeed = 0x5e55f022

// ---------------------------------------------------------------------------
// Target: workload memory-access schedules.

// schedOp is one decoded memory operation.
type schedOp struct {
	proc   int
	action int // 0 = load, 1 = store, 2 = rmw-add
	line   int
}

const (
	schedProcs    = 4
	schedLines    = 24
	schedMaxOps   = 2048
	schedActCount = 3
)

// decodeSchedule maps an arbitrary byte string onto a bounded list of
// memory operations: two bytes per op — processor and action from the
// first, target line from the second.
func decodeSchedule(data []byte) []schedOp {
	n := len(data) / 2
	if n > schedMaxOps {
		n = schedMaxOps
	}
	ops := make([]schedOp, 0, n)
	for i := 0; i < n; i++ {
		a, b := data[2*i], data[2*i+1]
		ops = append(ops, schedOp{
			proc:   int(a) % schedProcs,
			action: int(a>>2) % schedActCount,
			line:   int(b) % schedLines,
		})
	}
	return ops
}

// scheduleConfig is the fixed machine shape every schedule runs on: small
// caches so evictions happen, SENSS on with a short interval so MAC
// traffic interleaves densely with the schedule.
func scheduleConfig() machine.Config {
	cfg := machine.DefaultConfig()
	cfg.Procs = schedProcs
	cfg.Coherence.L1Size = 4 << 10
	cfg.Coherence.L2Size = 16 << 10
	cfg.CPU.CodeBytes = 2 << 10
	cfg.Security.Mode = machine.SecurityBus
	cfg.Security.Senss.Masks = 2
	cfg.Security.Senss.AuthInterval = 5
	cfg.Seed = rigSeed
	cfg.Oracle = true
	return cfg
}

// RunSchedule decodes data into a memory-access schedule, runs it on a
// secured machine in lockstep with the differential oracle, and returns
// nil when the timed simulator and the reference models agree.
func RunSchedule(data []byte) error {
	ops := decodeSchedule(data)
	cfg := scheduleConfig()
	m := machine.New(cfg)
	base := m.Alloc(schedLines * 64)
	for i := 0; i < schedLines; i++ {
		m.InitWord(base+uint64(i)*64, uint64(i))
	}
	perProc := make([][]schedOp, cfg.Procs)
	for _, op := range ops {
		perProc[op.proc] = append(perProc[op.proc], op)
	}
	progs := make([]cpu.Program, cfg.Procs)
	for i := 0; i < cfg.Procs; i++ {
		mine := perProc[i]
		progs[i] = func(c *cpu.Port) {
			for k, op := range mine {
				addr := base + uint64(op.line)*64
				switch op.action {
				case 0:
					_ = c.Load(addr)
				case 1:
					c.Store(addr, uint64(k))
				default:
					_ = c.Add(addr, 1)
				}
			}
		}
	}
	return checkMachine(m, progs)
}

// checkMachine runs progs and folds every disagreement channel into one
// error: engine errors, halts (the oracle halts on divergence), the
// divergence report itself, and the MOESI invariants of the final state.
func checkMachine(m *machine.Machine, progs []cpu.Program) error {
	if _, err := m.Run(progs); err != nil {
		return fmt.Errorf("run: %w", err)
	}
	if m.Oracle.Diverged() {
		return divergenceError(m.Oracle)
	}
	if halted, why := m.Halted(); halted {
		return fmt.Errorf("halted: %s", why)
	}
	if err := m.CheckInvariants(); err != nil {
		return fmt.Errorf("final state: %w", err)
	}
	return nil
}

// divergenceError renders a checker's report as the error the fuzz
// targets surface.
func divergenceError(c *oracle.Checker) error {
	r := c.Report()
	return fmt.Errorf("oracle divergence after %d transactions at cycle %d: %s",
		r.Checked, r.Cycle, r.Divergence)
}

// ---------------------------------------------------------------------------
// Target: adversary scenario scripts.

const (
	advMaxSteps     = 32
	advMinTransfers = 8
	advMaxTransfers = 64
)

// decodeAdversary maps a byte string onto a transfer count and a bounded
// core.Script step list: four bytes per step.
func decodeAdversary(data []byte) (transfers int, steps []core.Step) {
	transfers = advMinTransfers
	if len(data) > 0 {
		transfers = advMinTransfers + int(data[0])%(advMaxTransfers-advMinTransfers+1)
		data = data[1:]
	}
	n := len(data) / 4
	if n > advMaxSteps {
		n = advMaxSteps
	}
	for i := 0; i < n; i++ {
		b := data[4*i : 4*i+4]
		steps = append(steps, core.Step{
			Seq:    uint64(b[0]) % uint64(transfers),
			Action: int(b[1]) % core.ActCount,
			Victim: int(b[2]) % attack.RigProcs,
			Arg:    int(b[3]),
		})
	}
	return transfers, steps
}

// RunAdversary decodes data into an adversary script, runs it against the
// protocol-level SENSS rig with the crypto reference model observing, and
// enforces the two-sided property: a deviated observation stream must be
// detected, and an undeviated run must leave both the system and the
// oracle silent — never both silent about a real deviation.
func RunAdversary(data []byte) error {
	transfers, steps := decodeAdversary(data)
	// The crypto backend is an extra fuzzed dimension, chosen without
	// disturbing the step encoding (so the checked-in corpus keeps its
	// meaning): the oracle always recomputes with the reference AES, so
	// stdlib-backend runs are lockstep-checked against it here too.
	backends := crypto.Backends()
	params := core.Params{
		Masks:        2,
		Perfect:      true,
		AuthInterval: 10,
		MACTagBytes:  16,
		Backend:      backends[len(data)%len(backends)],
	}
	checker := oracle.New(oracle.Options{Procs: attack.RigProcs, Senss: params})
	rig := attack.NewRig(rigSeed, params, checker)
	checker.SetAlarm(rig.Sys.Detected)
	script := core.NewScript(attack.RigProcs, steps)
	rig.Sys.SetTamperer(script)
	rig.Drive(transfers)
	rig.Sys.ForceAuthentication(rig.GID)

	deviated, detected := script.Deviated(), rig.Sys.Detected()
	switch {
	case deviated && !detected:
		return fmt.Errorf("adversary deviated the observation stream (%d steps, %d transfers) and SENSS stayed silent",
			len(steps), transfers)
	case !deviated && detected:
		return fmt.Errorf("SENSS raised an alarm on an undeviated run (%d steps, %d transfers)",
			len(steps), transfers)
	case !deviated && checker.Diverged():
		return fmt.Errorf("oracle diverged on an undeviated run: %s", checker.Report().Divergence)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Target: machine configuration shapes.

// RunConfig decodes data into a machine configuration — procs × L2 size ×
// mask banks × auth interval × auth mode × perfect/adaptive, or the naive
// baseline in place of SENSS — and runs a
// fixed mixed workload on it under the oracle. Shapes the machine itself
// rejects are skipped, not failures.
func RunConfig(data []byte) error {
	get := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	cfg := machine.DefaultConfig()
	cfg.Procs = 1 + int(get(0))%8
	cfg.SmallGeometry()
	cfg.Coherence.L2Size = (16 << 10) << (int(get(1)) % 4)
	cfg.Security.Mode = machine.SecurityBus
	if get(4)&8 != 0 {
		cfg.Security.Mode = machine.SecurityNaive
	}
	cfg.Security.Senss.Masks = []int{1, 2, 4, 8}[int(get(2))%4]
	cfg.Security.Senss.AuthInterval = 1 + int(get(3))%128
	cfg.Security.Senss.AuthMode = core.AuthMode(int(get(4)) % 2)
	cfg.Security.Senss.Perfect = get(4)&2 != 0
	cfg.Security.Senss.Adaptive = get(4)&4 != 0
	cfg.Seed = rigSeed ^ uint64(get(5))
	cfg.Oracle = true
	if err := cfg.Validate(); err != nil {
		return nil // the shape is rejected up front; nothing to check
	}

	m := machine.New(cfg)
	shared := m.Alloc(16 * 64)
	for i := 0; i < 16; i++ {
		m.InitWord(shared+uint64(i)*64, uint64(i))
	}
	progs := make([]cpu.Program, cfg.Procs)
	for i := 0; i < cfg.Procs; i++ {
		i := i
		progs[i] = func(c *cpu.Port) {
			for n := 0; n < 30; n++ {
				addr := shared + uint64((n+i)%16)*64
				if (n+i)%3 == 0 {
					c.Store(addr, uint64(n))
				} else {
					v := c.Load(addr)
					c.Store(addr, v+1)
				}
			}
		}
	}
	return checkMachine(m, progs)
}
