package core

import (
	"encoding/binary"
	"fmt"

	"senss/internal/crypto"
	"senss/internal/crypto/aes"
	"senss/internal/crypto/cbcmac"
	"senss/internal/crypto/ct"
	"senss/internal/crypto/gf128"
)

// Group swap-out (paper §4.2, "Maintaining the mask"): when the OS swaps
// an application out, every SHU's session state — mask banks, chain
// positions, counters — must leave the chip encrypted and authenticated
// under the session key, and restore bit-exactly on swap-in, or the group
// chains would desynchronize. The OS handles the opaque blobs but can
// neither read nor forge them.

// contextMagic guards against restoring a blob into the wrong slot.
const contextMagic = 0x53454e5353574150 // "SENSSWAP"

// SavedContext is one SHU's encrypted, authenticated session context.
type SavedContext struct {
	PID        int
	GID        int
	Ciphertext []byte
	IV         aes.Block
	MAC        aes.Block
}

// Suspend serializes and encrypts the session state for gid, removing it
// from the SHU. The returned context is what the OS writes to (untrusted)
// memory.
func (s *SHU) Suspend(gid int, ivSeed uint64) (*SavedContext, error) {
	ss := s.session(gid)
	if ss == nil {
		return nil, fmt.Errorf("core: processor %d has no session for GID %d to suspend", s.PID, gid)
	}
	plain := s.serializeSession(ss)
	iv := ss.cipher.Encrypt(aes.BlockFromUint64(contextMagic, ivSeed))
	ct := cbcEncrypt(ss.cipher, iv, plain)
	mac := cbcmac.Sum(ss.cipher, iv.XOR(aes.BlockFromUint64(contextMagic, ^ivSeed)), ct)
	saved := &SavedContext{PID: s.PID, GID: gid, Ciphertext: ct, IV: iv, MAC: mac}

	// Only the encrypted blob leaves the chip; group membership stays in
	// the bit matrix so the SHU keeps filtering (and ignoring) bus traffic
	// for the suspended group correctly. The plaintext scratch and the
	// in-SHU session copy are zeroized — the blob is now the sole carrier
	// of the chain state.
	for i := range plain {
		plain[i] = 0
	}
	ss.zeroize()
	s.sessions[gid] = nil
	return saved, nil
}

// Resume decrypts, authenticates, and reinstalls a suspended context. The
// session key is re-derived from the program package (the SHU keeps it in
// the group info table across the swap in real hardware; here the caller
// supplies it, as the dispatcher would).
func (s *SHU) Resume(saved *SavedContext, key aes.Block) error {
	if saved.PID != s.PID {
		return fmt.Errorf("core: context for processor %d resumed on %d", saved.PID, s.PID)
	}
	if saved.GID < 0 || saved.GID >= MaxGroups {
		return fmt.Errorf("core: context GID %d outside group space", saved.GID)
	}
	cipher, err := crypto.NewBackend(s.params.Backend, key)
	if err != nil {
		return err
	}
	// Authenticate before use: a swapped blob in memory is attacker-reachable.
	mac := cbcmac.Sum(cipher, saved.IV.XOR(s.macBinder(cipher, saved.IV)), saved.Ciphertext)
	if !ct.Equal(mac[:], saved.MAC[:]) {
		return fmt.Errorf("core: suspended context for GID %d failed authentication", saved.GID)
	}
	plain := cbcDecrypt(cipher, saved.IV, saved.Ciphertext)
	// Rejoin the group's AES memo only after authentication: the blob
	// proves the key, and the GID sealed inside it proves the group, so
	// the table the other members read never receives a wrong-key result.
	ss, err := s.deserializeSession(plain, saved.GID, crypto.Memoize(cipher, s.memos[saved.GID]))
	if err != nil {
		return err
	}
	s.sessions[saved.GID] = ss
	return nil
}

// macBinder reconstructs the MAC IV binding used at Suspend time. The
// suspend IV is AES_K(magic ‖ seed); its decryption recovers the seed, so
// the binder is AES-free of stored secrets yet unforgeable without K.
func (s *SHU) macBinder(cipher crypto.BlockCipher, iv aes.Block) aes.Block {
	seedBlock := cipher.Decrypt(iv)
	_, seed := seedBlock.Uint64s()
	return aes.BlockFromUint64(contextMagic, ^seed)
}

// serializeSession flattens the mutable chain state.
func (s *SHU) serializeSession(ss *session) []byte {
	var out []byte
	u64 := func(v uint64) {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], v)
		out = append(out, b[:]...)
	}
	u64(uint64(s.params.AuthMode))
	u64(uint64(ss.gid))
	u64(ss.seq)
	u64(ss.ctr)
	u64(uint64(len(ss.banks)))
	for _, bank := range ss.banks {
		for _, blk := range bank {
			out = append(out, blk[:]...)
		}
	}
	if s.params.AuthMode == AuthGF {
		sum := ss.ghash.Sum()
		sub := ss.ghash.Subkey()
		out = append(out, sum[:]...)
		out = append(out, ss.ctrBase[:]...)
		out = append(out, sub[:]...)
	} else {
		sum := ss.mac.Sum()
		out = append(out, sum[:]...)
	}
	return out
}

// deserializeSession rebuilds group gid's session from serialized state.
// The sealed GID must match: SavedContext.GID travels in the clear, and a
// context retagged to another group must not join that group's session.
func (s *SHU) deserializeSession(plain []byte, gid int, cipher crypto.BlockCipher) (*session, error) {
	rd := func() (uint64, error) {
		if len(plain) < 8 {
			return 0, fmt.Errorf("core: truncated context")
		}
		v := binary.BigEndian.Uint64(plain[:8])
		plain = plain[8:]
		return v, nil
	}
	mode, err := rd()
	if err != nil {
		return nil, err
	}
	if AuthMode(mode) != s.params.AuthMode {
		return nil, fmt.Errorf("core: context auth mode %d does not match SHU", mode)
	}
	sealed, err := rd()
	if err != nil {
		return nil, err
	}
	if sealed != uint64(gid) {
		return nil, fmt.Errorf("core: context sealed for GID %d resumed as GID %d", sealed, gid)
	}
	seq, err := rd()
	if err != nil {
		return nil, err
	}
	ctr, err := rd()
	if err != nil {
		return nil, err
	}
	nbanks, err := rd()
	if err != nil {
		return nil, err
	}
	if int(nbanks) != s.params.Masks {
		return nil, fmt.Errorf("core: context has %d banks, SHU expects %d", nbanks, s.params.Masks)
	}
	ss := &session{gid: gid, cipher: cipher, seq: seq, ctr: ctr}
	ss.banks = make([][]aes.Block, nbanks)
	for i := range ss.banks {
		ss.banks[i] = make([]aes.Block, BlocksPerLine)
		for j := range ss.banks[i] {
			if len(plain) < aes.BlockSize {
				return nil, fmt.Errorf("core: truncated bank state")
			}
			copy(ss.banks[i][j][:], plain)
			plain = plain[aes.BlockSize:]
		}
	}
	if len(plain) < aes.BlockSize {
		return nil, fmt.Errorf("core: truncated chain state")
	}
	var sum aes.Block
	copy(sum[:], plain)
	plain = plain[aes.BlockSize:]
	if s.params.AuthMode == AuthGF {
		if len(plain) < 2*aes.BlockSize {
			return nil, fmt.Errorf("core: truncated GF state")
		}
		copy(ss.ctrBase[:], plain)
		plain = plain[aes.BlockSize:]
		var sub [16]byte
		copy(sub[:], plain)
		ss.ghash = gf128.NewGHASHWithState(sub, [16]byte(sum))
	} else {
		ss.mac = cbcmac.Resume(cipher, sum)
	}
	return ss, nil
}
