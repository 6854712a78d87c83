// Package core implements SENSS — the paper's security enhancement for
// snooping-bus SMPs.
//
// Every processor carries a Security Hardware Unit (SHU) holding a
// group-processor bit matrix and a group information table (occupied bit,
// session key, mask banks, authentication counter).  Cache-to-cache bus
// transfers are encrypted with a one-time-pad whose pads ("masks") are
// refreshed in the background through AES chained over the ciphertext
// history (Table 1 / Figure 2 of the paper), and authenticated with a
// chained CBC-MAC over (data ⊕ originator-PID) blocks (Eq. 1), checked
// every AuthInterval transfers by a round-robin initiator broadcasting its
// MAC on the bus.
//
// The package is used two ways: standalone (unit tests, attack analysis)
// via SHU/Group methods, and wired into the simulated machine as a
// bus.SecurityHook via System.
package core

import (
	"fmt"

	"senss/internal/crypto"
	"senss/internal/crypto/aes"
	"senss/internal/crypto/cbcmac"
	"senss/internal/crypto/gf128"
)

// Architectural limits from the paper (§5, §7.1).
const (
	MaxProcs  = 32
	MaxGroups = 1024
)

// BlocksPerLine is how many AES blocks one bus data transfer carries
// (64-byte line / 16-byte block).
const BlocksPerLine = 4

// pidBlock folds an originator PID and a block index into an AES block —
// the "PID input" of Figure 2 that defeats Type 3 (spoofing) attacks.
//
// senss-lint:hotpath
func pidBlock(pid int, j int) aes.Block {
	return aes.BlockFromUint64(uint64(pid), uint64(j))
}

// AuthMode selects the bus encryption/authentication construction.
type AuthMode int

// Authentication modes.
const (
	// AuthCBC is the paper's primary design: masks chained through
	// AES over the ciphertext history, MAC per Eq. (1) with a distinct IV.
	AuthCBC AuthMode = iota
	// AuthGF is the §4.3 "Implications" extension modeled after GCM:
	// counter-mode masks (precomputable, so senders never stall on mask
	// availability) with a GF(2^128) GHASH authentication chain —
	// encryption and MAC from a single AES invocation per block.
	AuthGF
)

// String names the mode.
func (m AuthMode) String() string {
	if m == AuthGF {
		return "gf"
	}
	return "cbc"
}

// Params configures the SENSS algorithms.
type Params struct {
	// AuthMode selects the CBC (paper's primary) or GCM-style (extension)
	// construction.
	AuthMode AuthMode
	// Masks is the number of mask banks k (paper §4.4: one for
	// unidirectional traffic, a pair for bidirectional, up to
	// AES-latency/bus-cycle = 8 for peak rates).
	Masks int
	// Perfect disables mask-availability stalls, modeling an unbounded
	// mask supply (the "Perfect" series of Figure 7).
	Perfect bool
	// AuthInterval is the number of cache-to-cache transfers between
	// authentication broadcasts; 1 authenticates every transfer, 0
	// disables authentication.
	AuthInterval int
	// MACTagBytes is the m-byte prefix of the chained MAC broadcast at
	// authentication points.
	MACTagBytes int
	// AESLatency is the modeled AES core latency in CPU cycles.
	AESLatency uint64
	// BusOverhead is the per-message datapath cost: 1 cycle for the
	// sender's XOR plus 2 on each receiver (GID lookup + XOR), per §7.1.
	BusOverhead uint64

	// Backend names the crypto.BlockCipher backend every session cipher is
	// constructed from ("ref", "stdlib"; empty selects crypto.Default).
	// Purely a host-software choice: the SHU's AES core is charged in
	// modeled cycles via AESLatency, so mask schedules, MACs, and cycle
	// counts are identical across backends.
	Backend string

	// Adaptive, when enabled, lets the system adjust the authentication
	// interval with bus load (§4.3: "the sequence length can be adjusted
	// by the system" — under heavy traffic per-transfer checking is
	// unaffordable; under light traffic it is nearly free). Every
	// adaptWindow transfers the mean inter-transfer gap is compared
	// against busyGapCycles and idleGapCycles and the interval doubles or
	// halves within [minInterval, maxInterval]. The chained MAC still
	// covers every transfer regardless of the interval in force.
	Adaptive bool
}

// The adaptive interval controller's window, thresholds and bounds.
const (
	minInterval   = 1
	maxInterval   = 128
	adaptWindow   = 32  // transfers per load measurement
	busyGapCycles = 200 // mean gap below this = heavy load → longer interval
	idleGapCycles = 800 // mean gap above this = light load → shorter interval
)

// DefaultParams returns the paper's highest-security configuration.
func DefaultParams() Params {
	return Params{
		Masks:        8,
		Perfect:      false,
		AuthInterval: 100,
		MACTagBytes:  16,
		AESLatency:   80,
		BusOverhead:  3,
	}
}

// sanitize fills in unset fields.
func (p Params) sanitize() Params {
	if p.Masks <= 0 {
		p.Masks = 1
	}
	if p.MACTagBytes <= 0 || p.MACTagBytes > aes.BlockSize {
		p.MACTagBytes = aes.BlockSize
	}
	if p.Adaptive {
		p.AuthInterval = min(max(p.AuthInterval, minInterval), maxInterval)
	}
	return p
}

// session is one group's entry in a processor's group information table.
type session struct {
	gid    int
	cipher crypto.BlockCipher
	//senss-lint:secret
	banks   [][]aes.Block // [k][BlocksPerLine] mask material
	seq     uint64        // this member's view of the group message count
	mac     *cbcmac.MAC
	alarmed bool

	// reusePads is the planted one-time-pad-reuse fault: when set,
	// advance skips the bank refresh so the same pad material encrypts
	// every k-th transfer. Test-only, via SHU.InjectMaskReuse.
	reusePads bool

	// AuthGF mode state: the GHASH accumulator, the counter-mode base
	// (derived from the encryption IV), and the running mask counter.
	ghash *gf128.GHASH
	//senss-lint:secret
	ctrBase aes.Block
	ctr     uint64
}

// SHU is one processor's security hardware unit.
type SHU struct {
	PID    int
	params Params

	// matrix is the group-processor bit matrix (§5.1): row gid holds the
	// member bitmask, all-zero for groups this processor is not in.
	matrix [MaxGroups]uint32

	// memos maps a GID to the AES memo the group's members share
	// (System.Establish allocates one per group). An entry outlives
	// Suspend so Resume can rejoin the table; Leave drops it. Only the
	// join, swap and leave paths read it, so a lazily made map spares
	// every SHU a flat 8 KB per-GID array.
	memos map[int]*crypto.Memo

	// sessions is the group information table, indexed directly by GID —
	// a flat array like the hardware's, so the per-transfer lookups on the
	// bus datapath are one bounds check and one load instead of map probes.
	sessions [MaxGroups]*session
}

// NewSHU creates the SHU for processor pid.
func NewSHU(pid int, params Params) *SHU {
	if pid < 0 || pid >= MaxProcs {
		panic(fmt.Sprintf("core: PID %d out of range", pid))
	}
	return &SHU{PID: pid, params: params.sanitize()}
}

// session returns gid's table entry, nil when out of range or unoccupied.
//
// senss-lint:hotpath
func (s *SHU) session(gid int) *session {
	if gid < 0 || gid >= MaxGroups {
		return nil
	}
	return s.sessions[gid]
}

// Join installs a group session: the symmetric key, the member set, and
// the two initial vectors (encryption mask IV and authentication IV, which
// must differ — §4.3, Type 2 defense). Every member must call Join with
// identical arguments (the dispatcher arranges this). A standalone Join
// shares no AES memo with the other members.
func (s *SHU) Join(gid int, key aes.Block, members uint32, encIV, authIV aes.Block) error {
	return s.join(gid, key, members, encIV, authIV, nil)
}

// join is Join with the group's shared AES memo (nil for none): the
// session cipher is this SHU's own key schedule wrapped around memo, so a
// mask refresh or MAC step another member already computed is a lookup.
func (s *SHU) join(gid int, key aes.Block, members uint32, encIV, authIV aes.Block, memo *crypto.Memo) error {
	if gid < 0 || gid >= MaxGroups {
		return fmt.Errorf("core: GID %d out of range", gid)
	}
	if members&(1<<uint(s.PID)) == 0 {
		return fmt.Errorf("core: processor %d not in member set %#x", s.PID, members)
	}
	if encIV == authIV {
		return fmt.Errorf("core: encryption and authentication IVs must differ")
	}
	backend, err := crypto.NewBackend(s.params.Backend, key)
	if err != nil {
		return err
	}
	cipher := crypto.Memoize(backend, memo)
	ss := &session{
		gid:    gid,
		cipher: cipher,
		mac:    cbcmac.New(cipher, authIV),
	}
	k := s.params.Masks
	ss.banks = make([][]aes.Block, k)
	if s.params.AuthMode == AuthGF {
		// Counter-mode masks from the encryption IV; GHASH subkey from
		// the authentication IV so the two chains stay independent.
		ss.ctrBase = encIV
		for i := range ss.banks {
			ss.banks[i] = make([]aes.Block, BlocksPerLine)
			for j := range ss.banks[i] {
				ss.banks[i][j] = cipher.Encrypt(ss.ctrBase.XOR(aes.BlockFromUint64(0, ss.ctr)))
				ss.ctr++
			}
		}
		h := cipher.Encrypt(authIV)
		ss.ghash = gf128.NewGHASH([16]byte(h))
	} else {
		for i := range ss.banks {
			ss.banks[i] = make([]aes.Block, BlocksPerLine)
			for j := range ss.banks[i] {
				// Derive the initial mask material from the encryption IV
				// so every invocation of a program yields fresh mask traces.
				ss.banks[i][j] = cipher.Encrypt(encIV.XOR(aes.BlockFromUint64(uint64(i), uint64(j))))
			}
		}
	}
	s.matrix[gid] = members
	if memo != nil {
		if s.memos == nil {
			s.memos = make(map[int]*crypto.Memo)
		}
		s.memos[gid] = memo
	} else {
		delete(s.memos, gid)
	}
	s.sessions[gid] = ss
	return nil
}

// zeroize overwrites every piece of key-derived material the session
// holds — mask banks, counter base, chain states, and the expanded key
// schedule, and with it the group's shared AES memo — before the session
// becomes unreachable. Deleting the map entry alone would leave the
// secrets legible in freed memory (paper §5.2: session state must not
// outlive the group).
func (ss *session) zeroize() {
	for _, bank := range ss.banks {
		for j := range bank {
			bank[j] = aes.Block{}
		}
	}
	ss.banks = nil
	ss.ctrBase = aes.Block{}
	ss.ctr = 0
	ss.seq = 0
	if ss.mac != nil {
		ss.mac.Zeroize()
	}
	if ss.ghash != nil {
		ss.ghash.Zeroize()
	}
	if ss.cipher != nil {
		ss.cipher.Zeroize()
		ss.cipher = nil
	}
}

// Leave clears a group session (program exit; GID reclaimed by the table),
// zeroizing the session key schedule, mask banks, and chain state first.
func (s *SHU) Leave(gid int) {
	ss := s.session(gid)
	if ss == nil {
		return
	}
	ss.zeroize()
	s.matrix[gid] = 0
	delete(s.memos, gid)
	s.sessions[gid] = nil
}

// InjectMaskReuse freezes gid's mask-bank refresh on this SHU — the
// deliberately planted crypto bug used to validate the differential
// oracle. When every member carries the fault the system remains
// self-consistent (identical stale banks everywhere, so decryption and
// the MAC chains keep agreeing); the bug is visible only to an
// independent reference pad schedule. Test-only.
func (s *SHU) InjectMaskReuse(gid int) {
	if ss := s.session(gid); ss != nil {
		ss.reusePads = true
	}
}

// InGroup consults the bit matrix: does this SHU maintain gid, and is
// proc a member?
func (s *SHU) InGroup(gid, proc int) bool {
	return s.matrix[gid]&(1<<uint(proc)) != 0
}

// Members returns the member bitmask for gid (zero if not maintained).
func (s *SHU) Members(gid int) uint32 { return s.matrix[gid] }

// Alarmed reports whether this SHU raised a self-snoop alarm on gid.
func (s *SHU) Alarmed(gid int) bool {
	ss := s.session(gid)
	return ss != nil && ss.alarmed
}

// Seq returns this member's message count for gid.
func (s *SHU) Seq(gid int) uint64 {
	ss := s.session(gid)
	if ss == nil {
		return 0
	}
	return ss.seq
}

// Encrypt produces the on-the-wire ciphertext for a line this processor is
// about to supply on the bus, and advances the local chains (the sender is
// also an observer of its own message). plain must be BlocksPerLine blocks.
func (s *SHU) Encrypt(gid int, plain []aes.Block) ([]aes.Block, error) {
	cipher := make([]aes.Block, len(plain))
	if err := s.EncryptInto(gid, plain, cipher); err != nil {
		return nil, err
	}
	return cipher, nil
}

// EncryptInto is Encrypt writing the ciphertext into a caller-owned buffer
// (len(cipher) == len(plain)) — the bus datapath's allocation-free form.
//
// senss-lint:hotpath
func (s *SHU) EncryptInto(gid int, plain, cipher []aes.Block) error {
	ss := s.session(gid)
	if ss == nil {
		//senss-lint:ignore hotpath failure path: misconfigured group, run is about to halt
		return fmt.Errorf("core: processor %d has no session for GID %d", s.PID, gid)
	}
	bank := ss.banks[ss.seq%uint64(len(ss.banks))]
	for j := range plain {
		cipher[j] = plain[j].XOR(bank[j]) // the 1-cycle OTP step
	}
	s.advance(ss, cipher, s.PID)
	return nil
}

// Observe processes a snooped group message: decrypt with the local mask
// bank, fold into the MAC chain, and refresh the bank from the observed
// ciphertext. It returns the recovered plaintext. A message claiming this
// processor's own PID trips the self-snoop alarm (Type 3 defense).
func (s *SHU) Observe(gid int, cipher []aes.Block, senderPID int) ([]aes.Block, error) {
	plain := make([]aes.Block, len(cipher))
	if err := s.ObserveInto(gid, cipher, senderPID, plain); err != nil {
		return nil, err
	}
	return plain, nil
}

// ObserveInto is Observe writing the recovered plaintext into a caller-owned
// buffer (len(plain) == len(cipher)) — the bus datapath's allocation-free
// form.
//
// senss-lint:hotpath
func (s *SHU) ObserveInto(gid int, cipher []aes.Block, senderPID int, plain []aes.Block) error {
	ss := s.session(gid)
	if ss == nil {
		//senss-lint:ignore hotpath failure path: misconfigured group, run is about to halt
		return fmt.Errorf("core: processor %d has no session for GID %d", s.PID, gid)
	}
	if senderPID == s.PID {
		ss.alarmed = true
		//senss-lint:ignore hotpath failure path: spoofing alarm, run is about to halt
		return fmt.Errorf("core: processor %d snooped a message claiming its own PID (spoofing)", s.PID)
	}
	bank := ss.banks[ss.seq%uint64(len(ss.banks))]
	for j := range cipher {
		plain[j] = cipher[j].XOR(bank[j])
	}
	s.advance(ss, cipher, senderPID)
	return nil
}

// advance refreshes the active mask bank and extends the authentication
// chain with (plaintext ⊕ PID) blocks.
//
// In AuthCBC mode (the paper's design) the next masks are chained through
// AES over the ciphertext and originator, and the MAC is the Eq. (1)
// CBC chain. In AuthGF mode masks come from a counter (independent of the
// traffic, hence precomputable) and the chain is a GHASH accumulator.
//
// senss-lint:hotpath
func (s *SHU) advance(ss *session, cipher []aes.Block, senderPID int) {
	bank := ss.banks[ss.seq%uint64(len(ss.banks))]
	for j := range cipher {
		plain := cipher[j].XOR(bank[j])
		in := plain.XOR(pidBlock(senderPID, j))
		if s.params.AuthMode == AuthGF {
			ss.ghash.Update([16]byte(in))
			if !ss.reusePads {
				bank[j] = ss.cipher.Encrypt(ss.ctrBase.XOR(aes.BlockFromUint64(0, ss.ctr)))
				ss.ctr++
			}
		} else {
			ss.mac.Update(in)
			if !ss.reusePads {
				bank[j] = ss.cipher.Encrypt(cipher[j].XOR(pidBlock(senderPID, j)))
			}
		}
	}
	ss.seq++
}

// MACTag returns the current m-byte authentication tag for gid.
func (s *SHU) MACTag(gid int) ([]byte, error) {
	sum, err := s.MACSum(gid)
	if err != nil {
		return nil, err
	}
	out := make([]byte, s.params.MACTagBytes)
	copy(out, sum[:])
	return out, nil
}

// MACSum returns the full-width chain value (tests, diagnostics).
func (s *SHU) MACSum(gid int) (aes.Block, error) {
	ss := s.session(gid)
	if ss == nil {
		return aes.Block{}, fmt.Errorf("core: no session for GID %d", gid)
	}
	if s.params.AuthMode == AuthGF {
		return aes.Block(ss.ghash.Sum()), nil
	}
	return ss.mac.Sum(), nil
}

// LineToBlocks splits a 64-byte line into BlocksPerLine AES blocks.
func LineToBlocks(line []byte) []aes.Block {
	out := make([]aes.Block, BlocksPerLine)
	LineToBlocksInto(line, out)
	return out
}

// LineToBlocksInto splits a 64-byte line into a caller-owned block buffer —
// the bus datapath's allocation-free form.
//
// senss-lint:hotpath
func LineToBlocksInto(line []byte, out []aes.Block) {
	if len(line) != BlocksPerLine*aes.BlockSize || len(out) != BlocksPerLine {
		panic(fmt.Sprintf("core: line of %d bytes into %d blocks", len(line), len(out)))
	}
	for j := range out {
		copy(out[j][:], line[j*aes.BlockSize:])
	}
}

// BlocksToLine reassembles AES blocks into a 64-byte line buffer.
func BlocksToLine(blocks []aes.Block, dst []byte) {
	if len(dst) != len(blocks)*aes.BlockSize {
		panic(fmt.Sprintf("core: dst of %d bytes for %d blocks", len(dst), len(blocks)))
	}
	for j, b := range blocks {
		copy(dst[j*aes.BlockSize:], b[:])
	}
}
