// Package hotfix is the hotpath fixture: planted violations of the
// allocation-and-escape discipline at golden positions, next to clean
// twins that must stay unreported. The package imports only the standard
// library so the fixture harness can type-check it in isolation; the
// allowlisted imports (encoding/binary, math/bits) double as a pin on
// the analyzer's external-call allowlist.
package hotfix

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// stats is plain value state shared by the fixtures.
type stats struct {
	hits, misses uint64
}

// senss-lint:hotpath
func (s *stats) bump() { s.hits++ }

// port mirrors the bus.MemoryPort shape: one interface, two
// implementations, only one of them annotated.
type port interface {
	fetch(addr uint64) uint64
}

// fastPort is the annotated implementation.
type fastPort struct{ base uint64 }

// senss-lint:hotpath
func (p *fastPort) fetch(addr uint64) uint64 { return p.base + addr }

// slowPort is deliberately unannotated: interface dispatch from hot code
// must name it.
type slowPort struct{ lines map[uint64]uint64 }

func (p *slowPort) fetch(addr uint64) uint64 { return p.lines[addr] }

// helper is unannotated module code: hot functions may not call it.
func helper(x uint64) uint64 { return x * 2 }

// senss-lint:hotpath
func hotHelper(x uint64) uint64 { return x + 1 }

// senss-lint:hotpath
func sink(v any) {}

// coldGrow is the sanctioned exit: first-touch growth with a written
// reason. Its body is not checked.
//
// senss-lint:coldpath first-touch growth happens once per line, off the steady state
func coldGrow(buf []byte) []byte { return append(buf, 0) }

// --- clean twins -----------------------------------------------------

// cleanSteady is the clean twin: flat state updates, annotated callees,
// allowlisted externals, value composite literals, and an exempt panic
// path keep the steady state allocation-free.
//
// senss-lint:hotpath
func cleanSteady(p *fastPort, s *stats, buf []byte) uint64 {
	v := binary.LittleEndian.Uint64(buf)
	v = bits.RotateLeft64(v, 8)
	v += hotHelper(p.fetch(v & 63))
	s.bump()
	local := stats{hits: v}
	if local.hits == 0 {
		panic(fmt.Sprintf("impossible rotation of %d", v))
	}
	return local.hits
}

// cleanColdCall exits through the coldpath hatch.
//
// senss-lint:hotpath
func cleanColdCall(buf []byte) []byte {
	return coldGrow(buf)
}

// cleanWaiver shows the audited-waiver protocol: a deliberate exception
// with a written reason is not reported.
//
// senss-lint:hotpath
func cleanWaiver(s *stats, xs []uint64) []uint64 {
	//senss-lint:ignore hotpath amortized growth: the slice reaches steady-state capacity after warmup
	xs = append(xs, s.hits)
	return xs
}

// --- planted violations ----------------------------------------------

// senss-lint:hotpath
func dirtyAllocs(n int) []byte {
	buf := make([]byte, n) // want "make allocates in hot code"
	p := new(stats)        // want "new allocates in hot code"
	p.bump()
	buf = append(buf, 1) // want "append may allocate"
	return buf
}

// senss-lint:hotpath
func dirtyCalls(s *stats) uint64 {
	v := helper(s.hits) // want "calls helper, which is not marked"
	fmt.Println(v)      // want "fmt.Println allocates in hot code"
	return v
}

// senss-lint:hotpath
func dirtyStrings(tag string, raw []byte) string {
	s := tag + "!"   // want "string concatenation allocates"
	b := string(raw) // want "string conversion allocates"
	return s + b     // want "string concatenation allocates"
}

// senss-lint:hotpath
func dirtyEscape() *stats {
	return &stats{hits: 1} // want "composite literal escapes"
}

// senss-lint:hotpath
func dirtyLiterals() {
	_ = []uint64{1, 2}      // want "slice literal"
	_ = map[uint64]uint64{} // want "map literal"
}

// senss-lint:hotpath
func dirtyClosure(n uint64) func() uint64 {
	f := func() uint64 { return helper(n) } // want "closure (func literal) allocates" want "calls helper"
	return f
}

// senss-lint:hotpath
func dirtyDeferLoop(s *stats) {
	for i := 0; i < 4; i++ {
		defer s.bump() // want "defer inside a loop allocates per iteration"
	}
}

// senss-lint:hotpath
func dirtyBoxing(s stats) any {
	var sunk any = s // want "interface conversion boxes"
	_ = sunk
	return s // want "interface conversion boxes"
}

// senss-lint:hotpath
func dirtyArgBoxing(s stats) {
	sink(s) // want "interface conversion boxes"
}

// senss-lint:hotpath
func dirtyIface(p port, addr uint64) uint64 {
	return p.fetch(addr) // want "resolves to unannotated implementation(s): slowPort.fetch"
}

// senss-lint:hotpath
func dirtyMapRange(m map[uint64]uint64) uint64 {
	var sum uint64
	for _, v := range m { // want "map iteration in hot code"
		sum += v
	}
	return sum
}

// senss-lint:hotpath
func dirtyGo() {
	go hotHelper(1) // want "go statement in hot code"
}

// senss-lint:hotpath
// senss-lint:coldpath a reason does not legitimize the double annotation
func dirtyBoth() {} // want "marked both hotpath and coldpath"

// senss-lint:coldpath // want `senss-lint:coldpath needs a written reason`
func coldNoReason() {}
