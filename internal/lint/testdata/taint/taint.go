// Package taint is the taintflow fixture: the five planted leak classes
// (print, error-string, json-marshal, variable-time compare, missing
// zeroize on an error path) at golden positions, next to clean twins that
// must stay unreported. The package imports only the standard library so
// the fixture harness can type-check it in isolation; unwrapSessionKey
// and padSchedule are wired into the analyzer's origin table, which also
// pins the table's FullName key format.
package taint

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Vault models a group-info table entry; Key is declared secret the same
// way the real tree annotates session state.
type Vault struct {
	//senss-lint:secret
	Key  []byte
	Name string
}

// unwrapSessionKey models RSA-unwrapping a session key (an acquire-flagged
// origin-table entry: the caller owns erasure).
func unwrapSessionKey() []byte {
	return make([]byte, 16)
}

// padSchedule models deriving the one-time-pad schedule (origin, not
// acquire-flagged).
func padSchedule() []byte {
	return make([]byte, 64)
}

// LeakPrint formats a secret: taint through a plain assignment.
func LeakPrint(v *Vault) {
	k := v.Key
	fmt.Printf("group key = %x\n", k) // want `flows into fmt.Printf`
}

// LeakError folds a secret into an error string: taint through copy()
// into a fresh buffer.
func LeakError(v *Vault) error {
	buf := make([]byte, len(v.Key))
	copy(buf, v.Key)
	return fmt.Errorf("rejected key %x", buf) // want `flows into fmt.Errorf`
}

// leakReport wraps the material the way the oracle's divergence report
// used to before redaction.
type leakReport struct {
	Blob []byte `json:"blob"`
}

// LeakJSON marshals a secret: taint through re-slicing and a composite
// literal.
func LeakJSON(v *Vault) ([]byte, error) {
	blob := v.Key[2:8]
	return json.Marshal(leakReport{Blob: blob}) // want `flows into encoding/json.Marshal`
}

// LeakCompare compares a secret in variable time.
func LeakCompare(v *Vault, guess []byte) bool {
	return bytes.Equal(v.Key, guess) // want `use ct.Equal`
}

// seal stands in for any fallible consumer of the key.
func seal(data, key []byte) ([]byte, error) {
	if len(key) == 0 {
		return nil, fmt.Errorf("empty key")
	}
	out := make([]byte, len(data))
	for i := range data {
		out[i] = data[i] ^ key[i%len(key)]
	}
	return out, nil
}

// wipe erases b (recognized by the zeroize rule by name).
func wipe(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// LeakZeroize erases the acquired key on the happy path but forgets the
// error path.
func LeakZeroize(data []byte) ([]byte, error) {
	key := unwrapSessionKey()
	out, err := seal(data, key)
	if err != nil {
		return nil, err // want `not zeroized on this return path`
	}
	wipe(key)
	return out, nil
}

// CleanCountedZeroize erases the key with the counted-loop idiom on both
// paths; the plain `for i := 0; i < len(key); i++` form must count as
// erasure just like a range-zero loop, with no waiver needed.
func CleanCountedZeroize(data []byte) ([]byte, error) {
	key := unwrapSessionKey()
	out, err := seal(data, key)
	if err != nil {
		for i := 0; i < len(key); i++ {
			key[i] = 0
		}
		return nil, err
	}
	for i := 0; i < len(key); i++ {
		key[i] = 0
	}
	return out, nil
}

// CleanZeroize is the fixed twin: a deferred wipe covers every path.
func CleanZeroize(data []byte) ([]byte, error) {
	key := unwrapSessionKey()
	defer wipe(key)
	out, err := seal(data, key)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// CleanClearZeroize erases with the clear builtin on both paths; the
// Go 1.21 idiom must count as erasure just like a named wipe helper.
func CleanClearZeroize(data []byte) ([]byte, error) {
	key := unwrapSessionKey()
	out, err := seal(data, key)
	if err != nil {
		clear(key)
		return nil, err
	}
	clear(key)
	return out, nil
}

// zeroLine is the conventional all-zero copy source; the name is what
// the copy-erasure rule keys on.
var zeroLine [64]byte

// CleanCopyZeroize erases by full-length copy from a zero source: the
// error path uses the structural make([]T, len(key)) form, the happy
// path the named zero-buffer convention.
func CleanCopyZeroize(data []byte) ([]byte, error) {
	key := unwrapSessionKey()
	out, err := seal(data, key)
	if err != nil {
		copy(key, make([]byte, len(key)))
		return nil, err
	}
	copy(key, zeroLine[:])
	return out, nil
}

// LeakCopyNotZero clears the happy path but "erases" the error path by
// copying from a live scratch buffer — data movement, not erasure.
func LeakCopyNotZero(data, scratch []byte) ([]byte, error) {
	key := unwrapSessionKey()
	out, err := seal(data, key)
	if err != nil {
		copy(key, scratch)
		return nil, err // want `not zeroized on this return path`
	}
	clear(key)
	return out, nil
}

// LeakSwitchBreak breaks out of one switch case before the wipe: the
// break reaches the return after the switch with the key live.
func LeakSwitchBreak(data []byte) error {
	key := unwrapSessionKey()
	switch len(data) {
	case 0:
		break
	default:
		wipe(key)
	}
	return nil // want `not zeroized on this return path`
}

// CleanSwitchBreak wipes before the break.
func CleanSwitchBreak(data []byte) error {
	key := unwrapSessionKey()
	switch len(data) {
	case 0:
		wipe(key)
		break
	default:
		wipe(key)
	}
	return nil
}

// LeakLoopBreak acquires in a loop and breaks out of it on one branch
// without the wipe the other branch does before it returns.
func LeakLoopBreak(data []byte) error {
	for len(data) > 0 {
		key := unwrapSessionKey()
		if len(data) > 16 {
			break
		}
		wipe(key)
		return nil
	}
	return nil // want `not zeroized on this return path`
}

// CleanLoopBreak wipes on the break branch too.
func CleanLoopBreak(data []byte) error {
	for len(data) > 0 {
		key := unwrapSessionKey()
		if len(data) > 16 {
			wipe(key)
			break
		}
		wipe(key)
		return nil
	}
	return nil
}
