// Package attack holds the canned end-to-end demonstrations of the paper's
// bus attacks (§3.2): message dropping (Type 1), reordering (Type 2),
// spoofing and replay (Type 3), each written as a core.Script step list,
// and the §3.1 and §4.3 strawman schemes whose flaws the paper argues.
// Every scenario names the SENSS check that must catch it. It also owns
// the protocol-level rig the scenarios and the adversary fuzzer drive.
// cmd/senss-attack and examples/attack-detection run the scenarios.
package attack

import (
	"senss/internal/bus"
	"senss/internal/core"
	"senss/internal/crypto/aes"
	"senss/internal/rng"
)

// RigProcs is the processor count of the protocol rig; all of them are
// members of its one group.
const RigProcs = 4

// Rig is a protocol-level SENSS instance: RigProcs processors in one
// established group, with no engine and no bus, so detection does not
// halt anything and transfers are pushed in by hand.
type Rig struct {
	Sys *core.System
	GID int

	r *rng.Rand
}

// NewRig keys the group's session from seed. A non-nil obs is installed
// before the session is established, so it sees the session parameters.
func NewRig(seed uint64, params core.Params, obs core.Observer) *Rig {
	params.Perfect = true
	sys := core.NewSystem(nil, nil, RigProcs, params, false)
	sys.SetObserver(obs)
	r := rng.New(seed)
	key := aes.Block(r.Block16())
	encIV := aes.Block(r.Block16())
	authIV := aes.Block(r.Block16())
	members := core.MemberMask(0, 1, 2, 3)
	gid, err := core.NewGroupTable().Allocate(members)
	if err != nil {
		panic(err)
	}
	if err := sys.Establish(gid, key, members, encIV, authIV); err != nil {
		panic(err)
	}
	return &Rig{Sys: sys, GID: gid, r: r}
}

// transfer pushes one cache-to-cache transfer of line from sender to
// requester through the SENSS layer.
func (g *Rig) transfer(sender, requester int, line []byte) {
	data := append([]byte(nil), line...)
	t := &bus.Transaction{Kind: bus.Rd, Addr: 0x1000, Src: requester, GID: g.GID, Data: data}
	t.SupplierID = sender
	g.Sys.OnTransaction(nil, t)
}

// Drive pushes up to n transfers of random lines — broadcast i from
// processor i mod RigProcs to the next one — stopping at the first
// detection.
func (g *Rig) Drive(n int) {
	for i := 0; i < n && !g.Sys.Detected(); i++ {
		line := make([]byte, 64)
		g.r.Fill(line)
		g.transfer(i%RigProcs, (i+1)%RigProcs, line)
	}
}
