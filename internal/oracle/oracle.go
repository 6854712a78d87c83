// Package oracle runs untimed reference models in lockstep with the timed
// simulator and flags the first divergence between them.
//
// Two models run side by side.  The coherence model keeps a flat map of
// line address → reference value and memory image (no timing, no LRU, no
// hierarchy) and cross-checks every granted bus transaction against the
// real caches at the coherence point: who may supply, who must have
// invalidated, whether the data on the wire matches the reference value.
// The crypto model (crypto.go) recomputes the SENSS one-time-pad schedule
// and the Eq. 1 transcript MAC from the session parameters alone and
// checks every transfer's ciphertext and every authentication tag against
// them.
//
// The checker observes and never perturbs: it charges zero cycles, takes
// no locks, and issues no transactions, so golden cycle counts are
// identical with it on or off.  On divergence it freezes a replayable
// Report — the divergence message, the seed/config needed to reproduce the
// run, and a ring of the most recent bus events — and halts the engine so
// the driver surfaces the failure.
package oracle

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"senss/internal/bus"
	"senss/internal/coherence"
	"senss/internal/core"
	"senss/internal/crypto/ct"
	"senss/internal/sim"
)

// window is the event-ring capacity of the replay trace: how many of the
// most recent bus events a divergence report carries.
const window = 64

// Options configures a Checker.
type Options struct {
	// Procs is the processor count (bounds supplier IDs); 0 disables the
	// supplier range check.
	Procs int
	// Senss carries the SENSS parameters the crypto reference model needs
	// (auth mode, mask-bank count, tag width). Leave zero when no SENSS
	// layer drives the Observer callbacks.
	Senss core.Params
}

// lineRef is the untimed reference state of one cache line.
type lineRef struct {
	value []byte
	// known marks the value architecturally stable: set after a shared
	// read or a writeback, cleared whenever a processor gains write
	// permission (RdX, Upgr, exclusive grant) and can mutate silently.
	known bool
}

// Event is one recorded bus transaction, the unit of the replay trace.
type Event struct {
	Cycle    uint64 `json:"cycle"`
	Kind     string `json:"kind"`
	Addr     uint64 `json:"addr"`
	Src      int    `json:"src"`
	Supplier int    `json:"supplier"`
	Shared   bool   `json:"shared"`
	Data     string `json:"data,omitempty"` // hex line payload for data-bearing kinds
}

// SessionFP identifies an established crypto session in a report without
// disclosing any secret: every field that is key material in the simulator
// appears only as a fingerprint — the hex of the first ct.FingerprintBytes
// bytes of its SHA-256 (ct.Fingerprint). The raw session key is never
// retained by the checker outside the reference cipher.
type SessionFP struct {
	GID      int    `json:"gid"`
	KeyFP    string `json:"key_fp"`
	Members  uint32 `json:"members"`
	EncIVFP  string `json:"enc_iv_fp"`
	AuthIVFP string `json:"auth_iv_fp"`
}

// Report is the frozen state of the first divergence: everything needed to
// reproduce and understand it. Rerunning the same seed and config yields
// the identical report. Sessions carries redacted identifiers of every
// session the oracle observed, so a divergence can be matched to the
// session that produced it without the report ever holding key bytes.
type Report struct {
	Divergence string      `json:"divergence"`
	Cycle      uint64      `json:"cycle"`
	Seed       uint64      `json:"seed"`
	Config     string      `json:"config"`
	Checked    uint64      `json:"checked"` // transactions observed before the divergence
	Sessions   []SessionFP `json:"sessions,omitempty"`
	Events     []Event     `json:"events"` // most recent bus events, oldest first
}

// Checker is the lockstep differential oracle. It implements
// bus.SecurityHook (coherence side) and core.Observer (crypto side).
type Checker struct {
	opt    Options
	engine *sim.Engine
	nodes  []*coherence.Node
	alarm  func() bool

	lines    map[uint64]*lineRef
	memory   map[uint64][]byte
	groups   map[int]*groupRef
	sessions []SessionFP // redacted establishment log, in observation order

	// pending carries the sender-side plaintext of the in-flight
	// cache-to-cache transfer from the Observer callback to the bus hook,
	// where the requester's decrypted view is compared against it.
	pendingGID   int
	pendingPlain [][16]byte
	pendingSet   bool

	ring  []Event
	next  int
	total uint64

	report *Report
	seed   uint64
	config string
}

// New creates a checker. Wire it with SetEngine/SetNodes/SetAlarm/SetMeta,
// attach it to the bus with AttachHook, and install it as the SENSS
// observer before sessions are established.
func New(opt Options) *Checker {
	return &Checker{
		opt:    opt,
		lines:  make(map[uint64]*lineRef),
		memory: make(map[uint64][]byte),
		groups: make(map[int]*groupRef),
		ring:   make([]Event, 0, window),
	}
}

// SetEngine lets the checker freeze the machine on divergence (the same
// global-alarm semantics the SENSS layer uses for detections).
func (c *Checker) SetEngine(e *sim.Engine) { c.engine = e }

// SetNodes gives the checker read access to the real cache hierarchies for
// the cross-cache structural checks. Without it only the memory-image,
// value, and crypto checks run.
func (c *Checker) SetNodes(ns []*coherence.Node) { c.nodes = ns }

// SetAlarm installs a predicate reporting whether the system under test
// has already raised its own alarm; the oracle then suppresses payload and
// tag checks so a genuine detection is not double-reported as divergence.
func (c *Checker) SetAlarm(f func() bool) { c.alarm = f }

// SetMeta records the reproduction coordinates stamped into the report.
func (c *Checker) SetMeta(seed uint64, config string) {
	c.seed, c.config = seed, config
}

// Diverged reports whether a divergence was found.
func (c *Checker) Diverged() bool { return c.report != nil }

// Report returns the frozen divergence report, or nil when clean.
func (c *Checker) Report() *Report { return c.report }

// Checked returns how many bus transactions the checker has observed.
func (c *Checker) Checked() uint64 { return c.total }

// WriteJSON dumps the divergence report (or {"divergence":""} when clean).
func (c *Checker) WriteJSON(w io.Writer) error {
	r := c.report
	if r == nil {
		r = &Report{Seed: c.seed, Config: c.config, Checked: c.total,
			Sessions: append([]SessionFP(nil), c.sessions...)}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

func (c *Checker) alarmRaised() bool { return c.alarm != nil && c.alarm() }

// fail freezes the first divergence and halts the engine. Later calls are
// no-ops: the first divergence is the replayable one.
func (c *Checker) fail(format string, args ...any) {
	if c.report != nil {
		return
	}
	var cycle uint64
	if c.engine != nil {
		cycle = c.engine.Now()
	}
	c.report = &Report{
		Divergence: fmt.Sprintf(format, args...),
		Cycle:      cycle,
		Seed:       c.seed,
		Config:     c.config,
		Checked:    c.total,
		Sessions:   append([]SessionFP(nil), c.sessions...),
		Events:     c.events(),
	}
	if c.engine != nil {
		c.engine.Halt("oracle: " + c.report.Divergence)
	}
}

// events returns the ring contents oldest-first.
func (c *Checker) events() []Event {
	out := make([]Event, 0, len(c.ring))
	if len(c.ring) < cap(c.ring) {
		return append(out, c.ring...)
	}
	out = append(out, c.ring[c.next:]...)
	return append(out, c.ring[:c.next]...)
}

func (c *Checker) record(p *sim.Proc, t *bus.Transaction) {
	var cycle uint64
	switch {
	case p != nil:
		cycle = p.Now()
	case c.engine != nil:
		cycle = c.engine.Now()
	}
	ev := Event{Cycle: cycle, Kind: t.Kind.String(), Addr: t.Addr,
		Src: t.Src, Supplier: t.SupplierID, Shared: t.Shared}
	if t.Kind.HasData() && t.Data != nil {
		ev.Data = hex.EncodeToString(t.Data)
	}
	if len(c.ring) < cap(c.ring) {
		c.ring = append(c.ring, ev)
	} else {
		c.ring[c.next] = ev
		c.next = (c.next + 1) % cap(c.ring)
	}
	c.total++
}

// OnTransaction implements bus.SecurityHook: the coherence-side lockstep
// check, run at the coherence point (post-snoop, pre-commit) of every
// granted transaction. The checker observes without disturbing timing:
// zero cycles is its contract.
func (c *Checker) OnTransaction(p *sim.Proc, t *bus.Transaction) uint64 {
	c.record(p, t)
	if c.report == nil {
		switch t.Kind {
		case bus.Rd:
			c.checkRead(t)
		case bus.RdX:
			c.checkReadX(t)
		case bus.Upgr:
			c.checkUpgrade(t)
		case bus.WB:
			c.applyWriteBack(t)
		}
	}
	c.pendingSet = false
	return 0
}

// OnCommitStore implements the bus commit callback: a dirty victim's bytes
// reached memory at the coherence point, ahead of its Committed WB.
func (c *Checker) OnCommitStore(src, gid int, addr uint64, data []byte) {
	c.memory[addr] = cloneBytes(data)
	c.setValue(addr, data, true)
}

// scanOthers inspects every real cache except the requester's: does any
// hold a valid copy, and does any hold it dirty (M/O)?
func (c *Checker) scanOthers(t *bus.Transaction) (shared bool, dirty int) {
	dirty = -1
	for i, n := range c.nodes {
		if i == t.Src || n == nil {
			continue
		}
		l := n.L2.Peek(t.Addr)
		if l == nil {
			continue
		}
		shared = true
		if dirty < 0 && l.State.Dirty() {
			dirty = i
		}
	}
	return shared, dirty
}

func (c *Checker) validSupplier(t *bus.Transaction) bool {
	if t.SupplierID < 0 || t.SupplierID == t.Src ||
		(c.opt.Procs > 0 && t.SupplierID >= c.opt.Procs) {
		c.fail("%s on %#x names an impossible supplier %d (requester %d)",
			t.Kind, t.Addr, t.SupplierID, t.Src)
		return false
	}
	return true
}

func (c *Checker) checkRead(t *bus.Transaction) {
	if t.SupplierID == bus.MemorySupplier {
		shared, dirty := c.scanOthers(t)
		if dirty >= 0 {
			c.fail("BusRd on %#x supplied by memory while processor %d holds the line dirty", t.Addr, dirty)
			return
		}
		if c.nodes != nil && t.Shared != shared {
			c.fail("BusRd on %#x reports shared=%v but the caches say shared=%v", t.Addr, t.Shared, shared)
			return
		}
		if !c.checkMemoryData(t) {
			return
		}
	} else {
		if !c.validSupplier(t) {
			return
		}
		if c.nodes != nil {
			if l := c.nodes[t.SupplierID].L2.Peek(t.Addr); l == nil {
				c.fail("BusRd supplier %d no longer holds %#x after the transfer", t.SupplierID, t.Addr)
				return
			}
		}
		if !t.Shared {
			c.fail("cache-to-cache BusRd on %#x without the shared flag", t.Addr)
			return
		}
		if !c.checkPayload(t) {
			return
		}
	}
	// A shared grant is architecturally stable (every holder needs the bus
	// to write); an exclusive grant can be modified silently, so the
	// reference value becomes unknown.
	c.setValue(t.Addr, t.Data, t.Shared)
}

func (c *Checker) checkReadX(t *bus.Transaction) {
	for i, n := range c.nodes {
		if i == t.Src || n == nil {
			continue
		}
		if l := n.L2.Peek(t.Addr); l != nil {
			c.fail("processor %d retains a %s copy of %#x after BusRdX from processor %d",
				i, l.State, t.Addr, t.Src)
			return
		}
	}
	if t.SupplierID == bus.MemorySupplier {
		if !c.checkMemoryData(t) {
			return
		}
	} else {
		if !c.validSupplier(t) {
			return
		}
		if !c.checkPayload(t) {
			return
		}
	}
	c.setValue(t.Addr, t.Data, false)
}

func (c *Checker) checkUpgrade(t *bus.Transaction) {
	if c.nodes != nil {
		if l := c.nodes[t.Src].L2.Peek(t.Addr); l == nil {
			c.fail("BusUpgr from processor %d on %#x it no longer holds (should have degraded to BusRdX)",
				t.Src, t.Addr)
			return
		}
	}
	for i, n := range c.nodes {
		if i == t.Src || n == nil {
			continue
		}
		if l := n.L2.Peek(t.Addr); l != nil {
			c.fail("processor %d retains a %s copy of %#x after BusUpgr from processor %d",
				i, l.State, t.Addr, t.Src)
			return
		}
	}
	c.setValue(t.Addr, nil, false)
}

func (c *Checker) applyWriteBack(t *bus.Transaction) {
	if t.Committed {
		// Contents already reached memory at the coherence point, observed
		// through OnCommitStore; other transactions may have legally
		// modified the line since, so there is nothing to compare here.
		return
	}
	c.memory[t.Addr] = cloneBytes(t.Data)
	c.setValue(t.Addr, t.Data, true)
}

// checkMemoryData compares a memory-supplied line against the reference
// image, adopting the line on first sight (tree warm-up and preloaded data
// regions never ride the bus, so their first fetch defines the image).
func (c *Checker) checkMemoryData(t *bus.Transaction) bool {
	img, ok := c.memory[t.Addr]
	if !ok {
		c.memory[t.Addr] = cloneBytes(t.Data)
		return true
	}
	if !ct.Equal(img, t.Data) {
		c.fail("memory-supplied data for %#x diverges from the reference memory image", t.Addr)
		return false
	}
	return true
}

// checkPayload validates a cache-to-cache data payload: against the
// sender's pre-encryption plaintext (when the SENSS layer reported one for
// this transfer) and against the reference value model.
func (c *Checker) checkPayload(t *bus.Transaction) bool {
	if c.pendingSet && c.pendingGID == t.GID && !c.alarmRaised() {
		for j, b := range c.pendingPlain {
			lo := j * len(b)
			if lo+len(b) > len(t.Data) || !ct.Equal(b[:], t.Data[lo:lo+len(b)]) {
				c.fail("decrypted payload of the %#x transfer diverges from the sender's plaintext (block %d)",
					t.Addr, j)
				return false
			}
		}
	}
	if li := c.lines[t.Addr]; li != nil && li.known && !ct.Equal(li.value, t.Data) {
		c.fail("cache-to-cache data for %#x diverges from the reference value", t.Addr)
		return false
	}
	return true
}

func (c *Checker) setValue(addr uint64, data []byte, known bool) {
	li := c.lines[addr]
	if li == nil {
		li = &lineRef{}
		c.lines[addr] = li
	}
	li.known = known
	if data != nil {
		li.value = cloneBytes(data)
	} else if !known {
		li.value = nil
	}
}

func cloneBytes(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
