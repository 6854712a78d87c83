package bus

import "senss/internal/mem"

// SimpleMemory is the unprotected MemoryPort: plaintext lines, no extra
// latency beyond the DRAM access already charged by Timing.MemLat.
type SimpleMemory struct {
	Backing *mem.Store
}

// Fetch implements MemoryPort.
//
// senss-lint:hotpath
// senss-lint:ignore cycleacct DRAM latency is charged by Timing.MemLat; the unprotected port adds no crypto cycles
func (m *SimpleMemory) Fetch(t *Transaction, dst []byte) uint64 {
	m.Backing.ReadLine(t.Addr, dst)
	return 0
}

// Store implements MemoryPort.
//
// senss-lint:hotpath
// senss-lint:ignore cycleacct writeback occupancy is charged by Timing.Occupancy; the unprotected port adds no crypto cycles
func (m *SimpleMemory) Store(t *Transaction, src []byte) uint64 {
	m.Backing.WriteLine(t.Addr, src)
	return 0
}
