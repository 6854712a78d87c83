package core

import (
	"errors"
	"fmt"
)

// ErrGroupsExhausted is returned by Allocate when every GID is occupied.
var ErrGroupsExhausted = errors.New("core: all group IDs occupied")

// GroupTable is the OS-visible allocator of group IDs (§5.2). Once a GID is
// selected for a program, the corresponding entry is marked occupied on
// every processor — including non-members — so untrusting applications can
// never share a GID. The paper's OS waiting queue for GID exhaustion is not
// modelled: Allocate fails instead, and callers refuse the request.
type GroupTable struct {
	occupied [MaxGroups]bool
	members  [MaxGroups]uint32
	free     int
}

// NewGroupTable returns a table with every GID free.
func NewGroupTable() *GroupTable {
	return &GroupTable{free: MaxGroups}
}

// Allocate reserves a GID for the given member bitmask. It fails with
// ErrGroupsExhausted when no entry is free.
func (g *GroupTable) Allocate(members uint32) (int, error) {
	if members == 0 {
		return 0, fmt.Errorf("core: empty member set")
	}
	for gid := 0; gid < MaxGroups; gid++ {
		if !g.occupied[gid] {
			g.occupied[gid] = true
			g.members[gid] = members
			g.free--
			return gid, nil
		}
	}
	return 0, ErrGroupsExhausted
}

// Release reclaims a GID on program completion.
func (g *GroupTable) Release(gid int) {
	if gid < 0 || gid >= MaxGroups || !g.occupied[gid] {
		panic(fmt.Sprintf("core: release of unoccupied GID %d", gid))
	}
	g.members[gid] = 0
	g.occupied[gid] = false
	g.free++
}

// Occupied reports whether gid is allocated.
func (g *GroupTable) Occupied(gid int) bool { return g.occupied[gid] }

// Members returns the member bitmask of gid.
func (g *GroupTable) Members(gid int) uint32 { return g.members[gid] }

// Free returns the number of unallocated GIDs.
func (g *GroupTable) Free() int { return g.free }

// MemberList expands a bitmask into ascending PIDs.
func MemberList(members uint32) []int {
	var out []int
	for pid := 0; pid < MaxProcs; pid++ {
		if members&(1<<uint(pid)) != 0 {
			out = append(out, pid)
		}
	}
	return out
}

// MemberMask builds a bitmask from PIDs.
func MemberMask(pids ...int) uint32 {
	var m uint32
	for _, pid := range pids {
		if pid < 0 || pid >= MaxProcs {
			panic(fmt.Sprintf("core: PID %d out of range", pid))
		}
		m |= 1 << uint(pid)
	}
	return m
}
