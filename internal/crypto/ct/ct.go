// Package ct holds the constant-time primitives the rest of the tree must
// use whenever secret material — session keys, pad blocks, MAC tags, chain
// state (paper §4) — is compared or discarded.
//
// The taintflow analyzer (internal/lint) enforces the contract: a
// comparison whose operand carries secret taint is a finding unless it
// goes through Equal, and a function that acquires a secret must erase it
// with Zero on every return path. Fingerprint is the sanctioned
// declassifier for reports and logs: a short one-way digest that
// identifies a key without revealing it.
package ct

import (
	"encoding/binary"
	"encoding/hex"

	"senss/internal/crypto/sha256"
)

// Equal reports whether a and b have identical contents, in time that
// depends only on their lengths. Unequal lengths compare unequal without
// touching the contents — length is public metadata for every tag and key
// format in this tree. The loops accumulate every difference, a word and
// then a byte at a time, with no early exit and no data-dependent branch;
// they allocate nothing, so the bus datapath may call Equal (the AES memo
// compares its stored inputs here).
//
// senss-lint:hotpath
func Equal(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	var diff uint64
	i := 0
	for ; i+8 <= len(a); i += 8 {
		diff |= binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:])
	}
	for ; i < len(a); i++ {
		diff |= uint64(a[i] ^ b[i])
	}
	return diff == 0
}

// Zero erases b. The loop is kept trivial so the compiler lowers it to a
// memclr; correctness here is erasure before the buffer goes back to the
// allocator, not resistance to a debugger.
func Zero(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// FingerprintBytes is the length of a Fingerprint in raw bytes.
const FingerprintBytes = 4

// Fingerprint returns a short hex digest (first FingerprintBytes bytes of
// SHA-256) that identifies secret material without revealing it — the only
// form in which key or pad identity may appear in divergence reports,
// logs, or error strings.
func Fingerprint(secret []byte) string {
	sum := sha256.Sum256(secret)
	return hex.EncodeToString(sum[:FingerprintBytes])
}
