package ct_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"senss/internal/crypto/ct"
)

func TestEqual(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"", "", true},
		{"a", "a", true},
		{"a", "b", false},
		{"abc", "ab", false},
		{"\x00\x01\x02", "\x00\x01\x02", true},
		{"\x00\x01\x02", "\x00\x01\x03", false},
	}
	for _, c := range cases {
		if got := ct.Equal([]byte(c.a), []byte(c.b)); got != c.want {
			t.Errorf("Equal(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if !ct.Equal(nil, []byte{}) {
		t.Error("nil and empty must compare equal: length is the only signal")
	}
	// A difference in any byte, in the word loop or the byte tail, counts.
	for _, n := range []int{7, 8, 9, 16, 17} {
		a := make([]byte, n)
		for i := range a {
			a[i] = byte(3*i + 1)
		}
		if !ct.Equal(a, append([]byte(nil), a...)) {
			t.Errorf("len %d: equal contents compared unequal", n)
		}
		for i := 0; i < n; i++ {
			b := append([]byte(nil), a...)
			b[i] ^= 0x80
			if ct.Equal(a, b) {
				t.Errorf("len %d: difference at byte %d missed", n, i)
			}
		}
	}
}

// TestEqualZeroAlloc: Equal is a hot-path function (the AES memo calls it
// on every lookup), so it must not allocate.
func TestEqualZeroAlloc(t *testing.T) {
	a := make([]byte, 16)
	b := make([]byte, 16)
	b[15] = 1
	if n := testing.AllocsPerRun(100, func() { ct.Equal(a, b) }); n != 0 {
		t.Fatalf("Equal allocates %.1f times per call, want 0", n)
	}
}

func TestZero(t *testing.T) {
	b := []byte{1, 2, 3, 4, 255}
	ct.Zero(b)
	for i, v := range b {
		if v != 0 {
			t.Fatalf("byte %d survived Zero: %d", i, v)
		}
	}
	ct.Zero(nil) // must not panic
}

// TestFingerprint pins the format (8 hex chars) and checks the digest
// against the standard library's SHA-256, since the internal implementation
// must agree with FIPS 180-4.
func TestFingerprint(t *testing.T) {
	secret := []byte("0123456789abcdef")
	fp := ct.Fingerprint(secret)
	if len(fp) != 2*ct.FingerprintBytes {
		t.Fatalf("fingerprint %q has length %d, want %d", fp, len(fp), 2*ct.FingerprintBytes)
	}
	sum := sha256.Sum256(secret)
	if want := hex.EncodeToString(sum[:ct.FingerprintBytes]); fp != want {
		t.Fatalf("Fingerprint = %q, want %q", fp, want)
	}
	if ct.Fingerprint([]byte("other")) == fp {
		t.Fatal("distinct secrets produced the same fingerprint")
	}
}
