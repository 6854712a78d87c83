// Package crypto defines the pluggable block-cipher layer behind the
// SENSS datapath. Every mask refresh, bus pad, memory pad, CBC-MAC
// block, and swap blob goes through a BlockCipher; which implementation
// stands behind the interface is a backend choice made once, at session
// construction, through the registry in this package.
//
// Two backends are registered:
//
//   - "ref": the from-scratch FIPS-197 implementation in
//     internal/crypto/aes: the state is four uint32 columns, with the
//     256-byte S-box as its only table and a branch-free word-wide
//     MixColumns, about 0.2 µs per block on a 2-vCPU Xeon VM. Slower
//     than stdlib but fully inspectable — it is the fidelity oracle the
//     differential checker replays, and its key schedule can be
//     genuinely zeroized.
//   - "stdlib": crypto/aes from the Go standard library, which uses
//     AES-NI (or the equivalent) on real hardware. Several times faster
//     again; senss-farm bench-crypto records the ratio in
//     BENCH_crypto.json.
//
// The backend never affects simulated timing: the SHU's AES core is
// charged in modeled cycles (Params.AESLatency) by the simulator, not by
// the wall-clock of the software cipher, so golden tables and cycle
// counts are byte-identical across backends. Both backends compute
// AES-128, so mask schedules, MACs, and memory images are bit-identical
// too; the cross-backend differential test in crypto_test.go pins that.
//
// Memoize puts a Memo, a small direct-mapped table of (input,
// AES_K(input)) pairs, in front of any backend. core.System.Establish
// gives each group one table shared by its members' ciphers: every member
// holds the same key and computes the same mask refresh and MAC step for
// each broadcast, so only the first member to see it pays for the AES on
// the host. AES_K is a pure function, so a memoized cipher returns
// exactly what its backend would; a member whose view diverged under
// attack simply misses. Zeroize on any member's cipher wipes the whole
// table (DESIGN.md §14).
package crypto

import (
	"fmt"
	"sort"

	"senss/internal/crypto/aes"
)

// BlockCipher is one AES-128 engine instance keyed at construction.
//
// Zeroize destroys the key material the instance holds (the taintflow
// erasure contract: session state must not outlive the group, paper
// §5.2). After Zeroize the cipher is unusable — Encrypt and Decrypt no
// longer compute AES under the session key.
type BlockCipher interface {
	Encrypt(src aes.Block) aes.Block
	Decrypt(src aes.Block) aes.Block
	Zeroize()
}

// Registered backend names.
const (
	// Ref is the reference FIPS-197 implementation (internal/crypto/aes).
	Ref = "ref"
	// Stdlib wraps crypto/aes (AES-NI on real hardware).
	Stdlib = "stdlib"
	// Default is the backend used when none is named: the reference
	// implementation, which stays the fidelity oracle.
	Default = Ref
)

// backends is the registry: one constructor per name. A constructor
// cannot fail — an aes.Block key is always the right size.
var backends = map[string]func(key aes.Block) BlockCipher{
	Ref:    func(key aes.Block) BlockCipher { return aes.NewFromBlock(key) },
	Stdlib: newStdlibCipher,
}

// Canonical maps the empty string to Default and leaves every other name
// untouched. Config plumbing treats "" and "ref" as the same backend;
// canonicalizing before hashing or construction keeps them one identity.
func Canonical(name string) string {
	if name == "" {
		return Default
	}
	return name
}

// NewBackend constructs the named backend keyed with key. The empty name
// selects Default. Unknown names are an error listing the registry.
func NewBackend(name string, key aes.Block) (BlockCipher, error) {
	ctor, ok := backends[Canonical(name)]
	if !ok {
		return nil, fmt.Errorf("crypto: unknown backend %q (have %v)", name, Backends())
	}
	return ctor(key), nil
}

// MustBackend is NewBackend for callers holding an already-validated
// name (machine.Config.Validate rejects unknown backends up front).
func MustBackend(name string, key aes.Block) BlockCipher {
	c, err := NewBackend(name, key)
	if err != nil {
		panic(err)
	}
	return c
}

// Known reports whether name selects a registered backend ("" counts,
// as Default).
func Known(name string) bool {
	_, ok := backends[Canonical(name)]
	return ok
}

// Backends lists the registered backend names, sorted.
func Backends() []string {
	out := make([]string, 0, len(backends))
	for name := range backends {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
