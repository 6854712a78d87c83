package core

import "fmt"

// Hardware-overhead model of paper §7.1: sizes of the two SHU tables and
// the extra bus lines. `senss-tables -fig hw` prints it and a unit test
// pins the arithmetic to the paper's reported numbers. MaxProcs and
// MaxGroups (core.go) size the group-processor matrix and the table.
const (
	keyBits      = 128 // session key
	counterBits  = 8   // authentication interval counter (the paper's choice)
	occupiedBits = 1   // occupied flag
	maskCount    = 8   // masks stored per group entry
	maskBits     = 128 // bits per mask
	baseBusLines = 378 // Sun Gigaplane bus lines
	msgTypeLines = 2   // new message-type lines
	gidLines     = 10  // GID lines (log2 MaxGroups)
)

// HWCost is the computed overhead report.
type HWCost struct {
	MatrixBytes        int     // group-processor bit matrix
	EntryBits          int     // one group info table entry
	TableBytes         int     // whole group info table
	ExtraBusLines      int     // added bus lines
	BusLineIncreasePct float64 // relative to the base bus
}

// ComputeHWCost evaluates the §7.1 arithmetic.
func ComputeHWCost() HWCost {
	// The paper sizes the matrix as entries × log2(MaxProcs) bits
	// ("1024 entries × 5 bits per entry = 640 bytes").
	bitsPerEntry := 0
	for 1<<bitsPerEntry < MaxProcs {
		bitsPerEntry++
	}
	matrixBits := MaxGroups * bitsPerEntry

	entryBits := occupiedBits + keyBits + counterBits + maskCount*maskBits
	extra := msgTypeLines + gidLines
	return HWCost{
		MatrixBytes:        matrixBits / 8,
		EntryBits:          entryBits,
		TableBytes:         MaxGroups * entryBits / 8,
		ExtraBusLines:      extra,
		BusLineIncreasePct: float64(extra) / float64(baseBusLines) * 100,
	}
}

// String renders the report in the paper's terms.
func (h HWCost) String() string {
	return fmt.Sprintf(
		"group-processor bit matrix: %d bytes\n"+
			"group info table entry:     %d bits\n"+
			"group info table:           %.1f KB (%d bytes)\n"+
			"extra bus lines:            %d (+%.1f%% over the base bus)\n"+
			"(the paper reports 640 B, 1161 bits, 148.6 KB, and ~3.1%%)",
		h.MatrixBytes, h.EntryBits, float64(h.TableBytes)/1000, h.TableBytes,
		h.ExtraBusLines, h.BusLineIncreasePct)
}
