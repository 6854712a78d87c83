package cpu

import (
	"testing"

	"senss/internal/bus"
	"senss/internal/coherence"
	"senss/internal/mem"
	"senss/internal/sim"
)

func newRig() (*sim.Engine, *mem.Store, *coherence.Node) {
	e := sim.NewEngine()
	store := mem.New()
	b := bus.New(e, bus.Timing{
		BusCycle: 10, C2CLat: 120, MemLat: 180, BytesPerBusCycle: 32, LineBytes: 64,
	}, &bus.SimpleMemory{Backing: store})
	n := coherence.NewNode(0, coherence.Params{
		L1Size: 1 << 10, L1Ways: 2, L1Line: 32,
		L2Size: 16 << 10, L2Ways: 4, L2Line: 64,
		L1HitLat: 2, L2HitLat: 10, StoreLat: 2, RMWLat: 4,
	}, b)
	return e, store, n
}

// runProgram executes one program on the rig and returns total cycles
// and the node it ran on.
func runProgram(t *testing.T, params Params, prog Program) (uint64, *coherence.Node) {
	t.Helper()
	e, _, n := newRig()
	Spawn(e, "cpu0", n, params, prog, nil)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e.Now(), n
}

func TestOpsCounted(t *testing.T) {
	_, n := runProgram(t, Params{}, func(c *Port) {
		c.Store(0x100, 1)
		c.Load(0x100)
		c.Add(0x100, 1)
	})
	if ops := n.Stats.Loads + n.Stats.Stores + n.Stats.RMWs; ops != 3 {
		t.Errorf("ops = %d, want 3", ops)
	}
}

func TestLoadStoreThroughHierarchy(t *testing.T) {
	_, _ = runProgram(t, Params{}, func(c *Port) {
		c.Store(0x200, 77)
		if v := c.Load(0x200); v != 77 {
			t.Errorf("Load = %d", v)
		}
	})
}

func TestAddAndCAS(t *testing.T) {
	runProgram(t, Params{}, func(c *Port) {
		c.Store(0x300, 10)
		if old := c.Add(0x300, 5); old != 10 {
			t.Errorf("Add returned %d, want old value 10", old)
		}
		if v := c.Load(0x300); v != 15 {
			t.Errorf("after Add = %d", v)
		}
		if !c.CAS(0x300, 15, 20) {
			t.Error("CAS with matching old failed")
		}
		if c.CAS(0x300, 15, 99) {
			t.Error("CAS with stale old succeeded")
		}
		if v := c.Load(0x300); v != 20 {
			t.Errorf("after CAS = %d", v)
		}
	})
}

func TestFloatRoundTrip(t *testing.T) {
	runProgram(t, Params{}, func(c *Port) {
		c.StoreFloat(0x400, 3.14159)
		if v := c.LoadFloat(0x400); v != 3.14159 {
			t.Errorf("LoadFloat = %v", v)
		}
	})
}

func TestThinkAdvancesTime(t *testing.T) {
	cycles, _ := runProgram(t, Params{}, func(c *Port) {
		c.Think(1234)
	})
	if cycles != 1234 {
		t.Errorf("Think(1234) advanced %d cycles", cycles)
	}
}

func TestOpGapCharged(t *testing.T) {
	noGap, _ := runProgram(t, Params{}, func(c *Port) {
		for i := 0; i < 10; i++ {
			c.Load(0x500)
		}
	})
	withGap, _ := runProgram(t, Params{OpGap: 7}, func(c *Port) {
		for i := 0; i < 10; i++ {
			c.Load(0x500)
		}
	})
	if withGap != noGap+70 {
		t.Errorf("gap charge: %d vs %d (+%d), want +70", withGap, noGap, withGap-noGap)
	}
}

func TestIFetchModelTouchesICache(t *testing.T) {
	_, n := runProgram(t, Params{CodeBase: 0x8000, CodeBytes: 256, IFetchBytes: 4}, func(c *Port) {
		for i := 0; i < 200; i++ { // cycles through the 256-byte text region
			c.Load(0x600)
		}
	})
	if n.Stats.IFetches == 0 {
		t.Error("instruction-fetch model never fetched")
	}
	if n.L1I.Hits == 0 {
		t.Error("looping code never hit the I-cache")
	}
}

func TestPIDAndNow(t *testing.T) {
	runProgram(t, Params{}, func(c *Port) {
		if c.PID() != 0 {
			t.Errorf("PID = %d", c.PID())
		}
		before := c.Now()
		c.Think(10)
		if c.Now() != before+10 {
			t.Error("Now did not advance")
		}
	})
}
