package comm

import (
	"cmp"
	"slices"

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
// SetupTrees records arrivals into two flat slices and seals them once
// routing ends; after that they are read-only.
type Trees struct {
	call uint64 // setup invocation; fixes the root hash

	// edges holds one entry per (level, group) at which setup packets of the
	// group arrived at this column's butterfly node of that level (>= 1),
	// sorted by level and then group. mask is the bitmask of up-edge sides
	// (bit 0 straight, bit 1 cross) along which they arrived; those edges are
	// the tree edges the multicast retraces downward.
	edges []treeEdge

	// leafs lists the members whose packets entered the butterfly at this
	// column's level-0 node, sorted by group, each group's members in
	// arrival order; the leaf delivers multicasts to them directly.
	leafs []treeLeaf

	// destFam/cols reproduce the setup invocation's root hash; they live as
	// long as the trees (unlike the session's pooled per-call families).
	destFam *hashing.Family
	cols    uint64
}

type treeEdge struct {
	group uint64
	level int32
	mask  uint8
}

type treeLeaf struct {
	group  uint64
	origin int32
}

func cmpEdge(a, b treeEdge) int {
	if c := cmp.Compare(a.level, b.level); c != 0 {
		return c
	}
	return cmp.Compare(a.group, b.group)
}

// record notes a setup packet's arrival for tree construction.
func (t *Trees) record(level int, group uint64, origin int32, side int) {
	if level == 0 {
		t.leafs = append(t.leafs, treeLeaf{group: group, origin: origin})
		return
	}
	t.edges = append(t.edges, treeEdge{group: group, level: int32(level), mask: 1 << side})
}

// seal sorts the recorded arrivals for lookup: edges by level and group,
// with the masks of one (level, group) OR-merged into one entry, and leaves
// stably by group, so each group keeps its members in arrival order.
func (t *Trees) seal() {
	slices.SortFunc(t.edges, cmpEdge)
	merged := t.edges[:0]
	for _, e := range t.edges {
		if k := len(merged) - 1; k >= 0 && cmpEdge(merged[k], e) == 0 {
			merged[k].mask |= e.mask
			continue
		}
		merged = append(merged, e)
	}
	t.edges = merged
	slices.SortStableFunc(t.leafs, func(a, b treeLeaf) int { return cmp.Compare(a.group, b.group) })
}

// mask returns the tree-edge sides of group at this column's node of level
// (see edges); 0 if the group's tree does not pass through it.
func (t *Trees) mask(level int, group uint64) uint8 {
	i, ok := slices.BinarySearchFunc(t.edges, treeEdge{group: group, level: int32(level)}, cmpEdge)
	if !ok {
		return 0
	}
	return t.edges[i].mask
}

// leaves returns the members of group recorded at this column's leaf, in
// arrival order.
func (t *Trees) leaves(group uint64) []treeLeaf {
	lo, _ := slices.BinarySearchFunc(t.leafs, group, func(l treeLeaf, g uint64) int { return cmp.Compare(l.group, g) })
	hi := lo
	for hi < len(t.leafs) && t.leafs[hi].group == group {
		hi++
	}
	return t.leafs[lo:hi]
}

// Congestion returns the number of trees sharing this column's most loaded
// butterfly node (the local contribution to the congestion of Theorem 2.4;
// aggregate with MaxAll for the global value).
func (t *Trees) Congestion() int {
	c, run := 0, 0
	for i, l := range t.leafs {
		if i == 0 || l.group != t.leafs[i-1].group {
			c++
		}
	}
	for i, e := range t.edges {
		if i == 0 || e.level != t.edges[i-1].level {
			run = 0
		}
		run++
		c = max(c, run)
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
	var destFam *hashing.Family
	s.pooledFamily(&destFam, call, 0x64657374) // "dest"
	h := pktHash{dest: destFam, rank: s.pooledFamily(&s.famRank, call, 0x72616e6b), cols: uint64(s.BF.Cols)}
	seq := seq24(call)

	t := &Trees{call: call, destFam: destFam, cols: h.cols}

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
	t.seal()
	return t
}
