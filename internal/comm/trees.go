package comm

import (
	"ncc/internal/hashing"
	"ncc/internal/ncc"
)

// TreeItem declares one multicast-group membership to be wired into the
// multicast trees: the member node Origin joins group Group. A node may
// declare memberships on behalf of others (the paper's orientation-based
// broadcast-tree setup has each node inject packets for its out-neighbors,
// Section 5).
type TreeItem struct {
	Group  uint64
	Origin ncc.NodeID
}

// Trees is a node's share of a set of multicast trees (Theorem 2.4): for
// every group, a tree in the butterfly rooted at a pseudo-random
// bottommost-level node with one leaf per member at the topmost level. The
// structure is distributed; each node holds only the state of its own column.
type Trees struct {
	call uint64 // setup invocation; fixes the root hash

	// children[level][group] is the bitmask of up-edge sides (bit 0 straight,
	// bit 1 cross) along which setup packets of the group arrived at this
	// column's butterfly node of that level; those edges are the tree edges
	// the multicast retraces downward.
	children []map[uint64]uint8

	// leafOrigins[group] lists the members whose packets entered the
	// butterfly at this column's level-0 node; the leaf delivers multicasts
	// to them directly.
	leafOrigins map[uint64][]int32

	// destFam/cols reproduce the setup invocation's root hash; they live as
	// long as the trees (unlike the session's pooled per-call families).
	destFam *hashing.Family
	cols    uint64
}

// record notes a setup packet's arrival for tree construction.
func (t *Trees) record(level int, group uint64, origin int32, side int) {
	if level == 0 {
		t.leafOrigins[group] = append(t.leafOrigins[group], origin)
		return
	}
	t.children[level][group] |= 1 << side
}

// Congestion returns the number of trees sharing this column's most loaded
// butterfly node (the local contribution to the congestion of Theorem 2.4;
// aggregate with MaxAll for the global value).
func (t *Trees) Congestion() int {
	c := len(t.leafOrigins)
	for _, m := range t.children {
		if len(m) > c {
			c = len(m)
		}
	}
	return c
}

// Root returns the bottommost-level column at which the tree of the given
// group is rooted.
func (t *Trees) Root(group uint64) int32 { return int32(t.destFam.Range(group, t.cols)) }

// SetupTrees solves the Multicast Tree Setup Problem (Theorem 2.4): the
// memberships declared by all nodes are routed toward their groups' root
// columns exactly like an aggregation, and every butterfly node records the
// edges along which packets of each group arrived. Cost: O(L/n + l/log n +
// log n) rounds w.h.p.; the resulting trees have congestion O(L/n + log n)
// w.h.p.
func (s *Session) SetupTrees(items []TreeItem) *Trees {
	s.assertDrained("SetupTrees")
	call := s.nextCall()
	// The dest family is retained by the returned Trees (it fixes every
	// group's root), so it is allocated fresh rather than pooled.
	k := max(4, ncc.CeilLog2(s.Ctx.N())+2)
	st := hashing.StreamFrom(s.seed, hashing.Mix(call)^0x64657374)
	destFam := hashing.NewFamily(k, &st)
	h := pktHash{dest: destFam, rank: s.pooledFamily(&s.famRank, call, 0x72616e6b), cols: uint64(s.BF.Cols)}
	seq := seq24(call)

	levels := s.BF.Levels()
	t := &Trees{call: call, leafOrigins: make(map[uint64][]int32), destFam: destFam, cols: h.cols}
	t.children = make([]map[uint64]uint8, levels)
	for i := range t.children {
		t.children[i] = make(map[uint64]uint8)
	}

	var r *combineRouter[uint64]
	if s.BF.IsEmulator(s.Ctx.ID()) {
		r = stateFor[uint64](s).combine(s, seq, Sum, t)
	}
	// Each membership enters with its own origin (on-behalf memberships
	// differ from the sender) and no delivery target.
	in := newInjector(s, r, h, seq, U64Wire{})
	for _, it := range items {
		in.add(it.Group, -1, int32(it.Origin), 1)
	}
	in.combine()
	return t
}
