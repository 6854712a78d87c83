package core

import (
	"fmt"

	"senss/internal/bus"
	"senss/internal/crypto"
	"senss/internal/crypto/aes"
	"senss/internal/crypto/ct"
	"senss/internal/sim"
)

// Observed is one message as seen by one receiver — the unit the attack
// interposer manipulates.
type Observed struct {
	Cipher []aes.Block
	Sender int // claimed originator PID
}

// Tamperer is the physical bus adversary: for each broadcast it may
// reshape what every receiver observes (drop, corrupt, re-order via
// buffering, spoof the PID). Returning nil means a clean broadcast.
// The map gives, per receiver PID, the ordered list of messages that
// receiver observes in place of the original; receivers absent from the
// map observe the original message.
type Tamperer interface {
	Tamper(seq uint64, sender int, cipher []aes.Block) map[int][]Observed
}

// Observer receives the protocol-level truth of the SENSS layer as it
// happens: session establishment parameters, every transfer's pre-tamper
// plaintext and on-the-wire ciphertext, and every authentication tag. The
// differential oracle implements it to run an untimed reference model in
// lockstep with the timed datapath. Observers must not mutate their
// arguments and must charge no simulated time.
type Observer interface {
	// OnEstablish fires once per Establish, before any transfer.
	OnEstablish(gid int, key aes.Block, members uint32, encIV, authIV aes.Block)
	// OnTransfer fires once per cache-to-cache transfer with the sender's
	// sequence number, the plaintext the sender encrypted, and the
	// ciphertext as it left the sender (before any interposer tampering).
	OnTransfer(gid, sender int, seq uint64, plain, wire []aes.Block)
	// OnAuth fires once per authentication broadcast with the initiator's
	// transmitted tag.
	OnAuth(gid, initiator int, tag []byte)
}

// SystemStats counts SENSS activity.
type SystemStats struct {
	Messages      uint64 // protected cache-to-cache transfers
	AuthMsgs      uint64 // authentication broadcasts
	MaskStalls    uint64 // cycles senders waited for mask banks
	Alarms        uint64
	IntervalUps   uint64 // adaptive interval doublings (load rose)
	IntervalDowns uint64 // adaptive interval halvings (load fell)
	Detections    []string
}

// groupTiming is the shared mask-availability schedule of a group: all
// members refresh banks in lockstep, so the sender-side schedule is global.
type groupTiming struct {
	availAt   []uint64 // per bank: cycle when next usable
	authCtr   int
	authRound int // round-robin authentication initiator index

	// Adaptive-interval state.
	interval   int    // interval currently in force
	lastMsgAt  uint64 // cycle of the previous c2c transfer
	gapSum     uint64
	windowMsgs int
}

// System wires the per-processor SHUs into the simulated bus as a
// bus.SecurityHook. It encrypts every cache-to-cache data transfer at the
// supplier, delivers the ciphertext through the (possibly adversarial)
// interposer to every group member, decrypts at the requester, and runs
// the periodic authentication protocol.
type System struct {
	params  Params
	engine  *sim.Engine
	bus     *bus.Bus
	shus    []*SHU
	timing  []*groupTiming // indexed by GID; nil = no group established
	tamper  Tamperer
	observe Observer
	halting bool // halt the engine on detection (true in the machine)

	// Broadcast scratch: one transfer's plaintext, on-the-wire ciphertext,
	// and per-receiver decryption, reused across transactions so the snoop
	// fan-out allocates nothing. Safe because OnTransaction runs to
	// completion under the bus lock before the next transfer, and the
	// observer contract forbids retaining the slices.
	plainBuf  [BlocksPerLine]aes.Block
	cipherBuf [BlocksPerLine]aes.Block
	gotBuf    [BlocksPerLine]aes.Block

	Stats SystemStats
}

// NewSystem creates the SENSS layer for nprocs processors and attaches it
// to b. halting controls whether a detection freezes the engine (the
// paper's global alarm) or is merely recorded (attack analysis runs).
func NewSystem(engine *sim.Engine, b *bus.Bus, nprocs int, params Params, halting bool) *System {
	s := &System{
		params:  params.sanitize(),
		engine:  engine,
		bus:     b,
		timing:  make([]*groupTiming, MaxGroups),
		halting: halting,
	}
	for pid := 0; pid < nprocs; pid++ {
		s.shus = append(s.shus, NewSHU(pid, s.params))
	}
	if b != nil {
		b.AttachHook(s)
	}
	return s
}

// SHU returns processor pid's security hardware unit.
func (s *System) SHU(pid int) *SHU { return s.shus[pid] }

// SetTamperer installs (or clears) the bus adversary.
func (s *System) SetTamperer(t Tamperer) { s.tamper = t }

// SetObserver installs (or clears) the lockstep observer. Install it
// before Establish so the observer sees the session parameters.
func (s *System) SetObserver(o Observer) { s.observe = o }

// InjectMaskReuse plants the deliberate crypto bug the differential
// oracle exists to catch: every member SHU of gid stops refreshing its
// mask banks, so the one-time pad repeats with period k·BlocksPerLine
// blocks. The system stays perfectly self-consistent — all members reuse
// the same stale banks, decryption still recovers the plaintext, and the
// MAC chains never disagree — which is exactly why internal agreement
// checks cannot see it and only an independent reference model can.
func (s *System) InjectMaskReuse(gid int) {
	for _, shu := range s.shus {
		shu.InjectMaskReuse(gid)
	}
}

// Establish installs a group session on every member SHU and initializes
// the group's mask-availability schedule. It is the low-level counterpart
// of the Dispatcher (which performs the full RSA key-wrap handshake).
func (s *System) Establish(gid int, key aes.Block, members uint32, encIV, authIV aes.Block) error {
	if gid < 0 || gid >= MaxGroups {
		return fmt.Errorf("core: GID %d outside group space [0,%d)", gid, MaxGroups)
	}
	// One AES memo per group: the members hold the same key and compute
	// the same mask refreshes and MAC steps, so only the first member to
	// see a broadcast pays for its AES work on the host.
	memo := new(crypto.Memo)
	for _, pid := range MemberList(members) {
		if pid >= len(s.shus) {
			return fmt.Errorf("core: member %d beyond system size %d", pid, len(s.shus))
		}
		if err := s.shus[pid].join(gid, key, members, encIV, authIV, memo); err != nil {
			return err
		}
	}
	s.timing[gid] = &groupTiming{
		availAt:  make([]uint64, s.params.Masks),
		interval: s.params.AuthInterval,
	}
	if s.observe != nil {
		s.observe.OnEstablish(gid, key, members, encIV, authIV)
	}
	return nil
}

// timingFor returns gid's mask-availability schedule, or nil when no such
// group has been established (or gid is outside the group space).
//
//senss-lint:hotpath
func (s *System) timingFor(gid int) *groupTiming {
	if gid < 0 || gid >= len(s.timing) {
		return nil
	}
	return s.timing[gid]
}

// CurrentInterval reports the authentication interval in force for gid
// (equals Params.AuthInterval unless adaptation moved it).
func (s *System) CurrentInterval(gid int) int {
	if gt := s.timingFor(gid); gt != nil {
		return gt.interval
	}
	return s.params.AuthInterval
}

// detect records an integrity violation and, in halting mode, freezes the
// machine (the paper's global alarm).
func (s *System) detect(reason string) {
	s.Stats.Alarms++
	s.Stats.Detections = append(s.Stats.Detections, reason)
	if s.halting && s.engine != nil {
		s.engine.Halt("senss: " + reason)
	}
}

// Detected reports whether any alarm fired.
func (s *System) Detected() bool { return s.Stats.Alarms > 0 }

// OnTransaction implements bus.SecurityHook: the SENSS datapath.
func (s *System) OnTransaction(p *sim.Proc, t *bus.Transaction) uint64 {
	extra := s.params.BusOverhead // +3 cycles on every tagged bus message
	if !t.CacheToCache() {
		return extra
	}
	gt := s.timingFor(t.GID)
	if gt == nil {
		return extra // untagged traffic (no group established)
	}
	sender := t.SupplierID

	// Mask-availability stall: the sender holds the bus until the bank for
	// this message sequence has been refreshed (§4.4). AuthGF masks come
	// from a counter, independent of the traffic, so they are precomputed
	// arbitrarily far ahead and never stall (the mode's selling point).
	if !s.params.Perfect && s.params.AuthMode == AuthCBC && p != nil {
		bank := int(s.shus[sender].Seq(t.GID) % uint64(s.params.Masks))
		if avail := gt.availAt[bank]; avail > p.Now() {
			stall := avail - p.Now()
			s.Stats.MaskStalls += stall
			extra += stall
		}
	}

	// One broadcast touches one reusable set of buffers: the line splits
	// into plainBuf, encrypts into cipherBuf, and every snooping member
	// decrypts the shared ciphertext into gotBuf in turn — no per-CPU
	// message construction.
	plain := s.plainBuf[:]
	LineToBlocksInto(t.Data, plain)
	cipher := s.cipherBuf[:]
	if err := s.shus[sender].EncryptInto(t.GID, plain, cipher); err != nil {
		s.detect(err.Error())
		return extra
	}
	s.Stats.Messages++
	if s.observe != nil {
		s.observe.OnTransfer(t.GID, sender, s.shus[sender].Seq(t.GID)-1, plain, cipher)
	}

	// Schedule this bank's refresh completion.
	if s.params.Masks > 0 && p != nil {
		bank := int((s.shus[sender].Seq(t.GID) - 1) % uint64(s.params.Masks))
		gt.availAt[bank] = p.Now() + extra + s.params.AESLatency
	}

	// Broadcast through the interposer to every member except the sender.
	var tampered map[int][]Observed
	if s.tamper != nil {
		// Interposers may buffer the wire image for later replay, so hand
		// them a private copy rather than the reused scratch (cold path:
		// attack runs only).
		wire := make([]aes.Block, len(cipher))
		copy(wire, cipher)
		tampered = s.tamper.Tamper(s.shus[sender].Seq(t.GID)-1, sender, wire)
	}
	members := s.shus[sender].Members(t.GID)
	for pid := 0; pid < len(s.shus); pid++ {
		if pid == sender || members&(1<<uint(pid)) == 0 {
			continue
		}
		if tampered != nil {
			if alt, ok := tampered[pid]; ok {
				// Attacked receiver: observe the interposer's substitute
				// message stream instead of the original.
				for _, o := range alt {
					got := s.gotBuf[:]
					if err := s.shus[pid].ObserveInto(t.GID, o.Cipher, o.Sender, got); err != nil {
						s.detect(err.Error())
						continue
					}
					if pid == t.Src {
						BlocksToLine(got, t.Data)
					}
				}
				continue
			}
		}
		got := s.gotBuf[:]
		if err := s.shus[pid].ObserveInto(t.GID, cipher, sender, got); err != nil {
			s.detect(err.Error())
			continue
		}
		if pid == t.Src {
			// The requester consumes its decrypted view — under attack
			// this is garbage, exactly as on a real tampered bus.
			BlocksToLine(got, t.Data)
		}
	}

	// Adaptive interval control (§4.3 extension): track the mean gap
	// between transfers and re-tune the interval per window.
	if s.params.Adaptive {
		s.adapt(gt, p)
	}

	// Authentication protocol (§4.3): after interval transfers, the
	// round-robin initiator broadcasts its MAC and all members compare.
	if gt.interval > 0 {
		gt.authCtr++
		if gt.authCtr >= gt.interval {
			gt.authCtr = 0
			extra += s.authenticate(t.GID, members, gt)
		}
	}
	return extra
}

// now returns the current cycle from the proc or the engine (protocol-
// level drives pass p == nil).
//
//senss-lint:ignore cycleacct read-only helper: observes the clock, charges nothing
func (s *System) now(p *sim.Proc) uint64 {
	if p != nil {
		return p.Now()
	}
	if s.engine != nil {
		return s.engine.Now()
	}
	return 0
}

// adapt implements the load-driven interval controller.
func (s *System) adapt(gt *groupTiming, p *sim.Proc) {
	now := s.now(p)
	if gt.lastMsgAt != 0 && now >= gt.lastMsgAt {
		gt.gapSum += now - gt.lastMsgAt
		gt.windowMsgs++
	}
	gt.lastMsgAt = now
	if gt.windowMsgs < s.params.AdaptWindow {
		return
	}
	mean := gt.gapSum / uint64(gt.windowMsgs)
	gt.gapSum, gt.windowMsgs = 0, 0
	switch {
	case mean < s.params.BusyGapCycles && gt.interval < s.params.MaxInterval:
		gt.interval *= 2
		if gt.interval > s.params.MaxInterval {
			gt.interval = s.params.MaxInterval
		}
		s.Stats.IntervalUps++
	case mean > s.params.IdleGapCycles && gt.interval > s.params.MinInterval:
		gt.interval /= 2
		if gt.interval < s.params.MinInterval {
			gt.interval = s.params.MinInterval
		}
		s.Stats.IntervalDowns++
	}
}

// authenticate runs one MAC broadcast, returning the bus cycles it adds.
func (s *System) authenticate(gid int, members uint32, gt *groupTiming) uint64 {
	list := MemberList(members)
	if len(list) == 0 {
		return 0
	}
	initiator := list[gt.authRound%len(list)]
	gt.authRound++
	s.Stats.AuthMsgs++

	var occ uint64
	if s.bus != nil {
		occ = s.bus.RecordInjected(bus.Auth)
	}
	ref, err := s.shus[initiator].MACTag(gid)
	if err != nil {
		s.detect(err.Error())
		return occ
	}
	if s.observe != nil {
		s.observe.OnAuth(gid, initiator, ref)
	}
	for _, pid := range list {
		if pid == initiator || pid >= len(s.shus) {
			continue
		}
		tag, err := s.shus[pid].MACTag(gid)
		if err != nil {
			s.detect(err.Error())
			continue
		}
		if !ct.Equal(ref, tag) {
			s.detect(fmt.Sprintf("bus authentication failure: processor %d disagrees with initiator %d on group %d",
				pid, initiator, gid))
			return occ
		}
	}
	return occ
}

// ForceAuthentication runs an immediate authentication round (used by
// tests and by the attack analyzer to bound detection latency).
func (s *System) ForceAuthentication(gid int) {
	gt := s.timingFor(gid)
	if gt == nil {
		return
	}
	var members uint32
	for _, shu := range s.shus {
		if m := shu.Members(gid); m != 0 {
			members = m
			break
		}
	}
	gt.authCtr = 0
	s.authenticate(gid, members, gt)
}
