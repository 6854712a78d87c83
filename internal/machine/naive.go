package machine

import (
	"senss/internal/bus"
	"senss/internal/core"
	"senss/internal/crypto"
	"senss/internal/sim"
)

// naiveHook wires the §7.3 "naive" baseline into the bus: direct
// encryption and per-message MAC authentication of every cache-to-cache
// transfer. The block cipher sits on the critical path at both ends
// (2 × AES latency per transfer) and the MAC tag consumes a bus slot —
// the performance penalty the paper cites for dismissing this design.
// Its security blind spots (drops, replays, reordering pass unnoticed)
// are demonstrated at protocol level in internal/core's tests.
type naiveHook struct {
	bus     *bus.Bus
	channel *core.NaiveChannel
	aesLat  uint64
	seq     uint64

	Transfers uint64
}

func newNaiveHook(b *bus.Bus, cipher crypto.BlockCipher, aesLat uint64) *naiveHook {
	return &naiveHook{bus: b, channel: core.NewNaiveChannel(cipher), aesLat: aesLat}
}

// OnTransaction implements bus.SecurityHook.
//
// senss-lint:ignore cycleacct non-cache-to-cache transactions pass the naive channel uncharged by design
func (h *naiveHook) OnTransaction(p *sim.Proc, t *bus.Transaction) uint64 {
	if !t.CacheToCache() {
		return 0
	}
	h.Transfers++
	// Real crypto round trip: encrypt at the supplier, verify+decrypt at
	// the requester.
	msg := h.channel.Send(h.seq, core.LineToBlocks(t.Data))
	h.seq++
	plain, err := h.channel.Receive(msg)
	if err != nil {
		// A per-message MAC failure would be an immediate alarm; on a
		// clean (untampered) bus it indicates a simulator bug.
		panic("machine: naive baseline MAC failure on a clean bus")
	}
	core.BlocksToLine(plain, t.Data)

	// Timing: serialized encrypt + decrypt, plus the tag's bus slot.
	extra := 2 * h.aesLat
	if h.bus != nil {
		extra += h.bus.RecordInjected(bus.Auth)
	}
	return extra
}
