package core

import (
	"fmt"

	"ncc/internal/comm"
	"ncc/internal/graph"
	"ncc/internal/hashing"
	"ncc/internal/ncc"
	"ncc/internal/seq"
)

// coin/finished encoding for the per-phase component multicast.
const (
	coinHeads    = 1 << 0
	compFinished = 1 << 1
)

// MST computes the minimum spanning forest of wg in O(log^4 n) rounds w.h.p.
// (Theorem 3.2): Boruvka phases with heads/tails clustering; each component
// maintains a multicast tree rooted at its leader; the lightest outgoing edge
// is found by binary (here: quaternary) search over the combined
// weight-and-edge-key space using XOR edge sketches aggregated to the leader
// (the FindMin procedure of King, Kutten and Thorup, Section 3).
//
// Returns the forest edges this node knows about: for every forest edge, the
// endpoint inside the merging component learns it, exactly the paper's output
// contract. Requires n <= 2^20 and weights below 2^23 (one sort key per
// Theta(log n)-bit word).
func MST(s *comm.Session, wg *graph.Weighted) [][2]int {
	edges, _ := MSTWithComponents(s, wg)
	return edges
}

// ComponentLabels computes connected components of g: every node learns a
// label (the id of its component's final Boruvka leader) shared by exactly
// the nodes of its component. A corollary of the MST machinery on unit
// weights, in O(log^4 n) rounds w.h.p.
func ComponentLabels(s *comm.Session, g *graph.Graph) int {
	_, leader := MSTWithComponents(s, graph.NewWeighted(g))
	return leader
}

// MSTWithComponents is MST, additionally returning the node's final
// component leader (a connectivity label).
func MSTWithComponents(s *comm.Session, wg *graph.Weighted) ([][2]int, int) {
	ctx := s.Ctx
	me := ctx.ID()
	n := ctx.N()
	if n > 1<<20 {
		panic("core: MST supports at most 2^20 nodes")
	}
	if wg.MaxWeight() >= 1<<23 {
		// Sort keys must stay below 2^63: bit 63 carries the
		// search-active/edge-found flag in the component multicasts.
		panic("core: MST supports weights below 2^23")
	}
	nbrs := wg.Neighbors(me)

	// Global search bounds over the sort-key space.
	var loLocal, hiLocal uint64
	hasEdge := len(nbrs) > 0
	if hasEdge {
		loLocal, hiLocal = ^uint64(0), 0
		for _, v := range nbrs {
			k := seq.SortKey(me, int(v), wg.Weight(me, int(v)), n)
			loLocal = min(loLocal, k)
			hiLocal = max(hiLocal, k)
		}
	}
	minKey, _ := comm.AggregateAndBroadcast(s, loLocal, hasEdge, comm.Min)
	maxKey, anyEdge := comm.AggregateAndBroadcast(s, hiLocal, hasEdge, comm.Max)
	if !anyEdge {
		minKey, maxKey = 0, 0
	}
	// Quaternary search shrinks the span by a factor of about 4 per step but
	// only by an additive constant once spans are tiny; a few extra steps
	// cover the tail.
	steps := 4
	for span := maxKey - minKey; span > 0; span >>= 2 {
		steps++
	}

	leader := me
	finished := !anyEdge
	var out [][2]int

	for {
		// Rebuild component trees: every non-leader joins its leader's group.
		var items []comm.TreeItem
		if leader != me {
			items = append(items, comm.TreeItem{Group: uint64(leader), Origin: me})
		}
		trees := s.SetupTrees(items)

		// Leader flips the coin and shares it with the component.
		isLeader := leader == me
		var cmsg uint64
		coinIsHeads := false
		if isLeader {
			coinIsHeads = ctx.Rand().Uint64()&1 == 1
			if coinIsHeads {
				cmsg |= coinHeads
			}
			if finished {
				cmsg |= compFinished
			}
		}
		got := comm.Multicast(s, trees, isLeader, uint64(me), cmsg, comm.U64Wire{}, 1)
		if !isLeader {
			for _, gv := range got {
				if gv.Group != uint64(leader) {
					panic(fmt.Sprintf("core: node %d got coin for foreign component %d", me, gv.Group))
				}
				coinIsHeads = gv.Val&coinHeads != 0
				finished = gv.Val&compFinished != 0
			}
		}

		// FindMin: locate the lightest outgoing edge of the component.
		foundMin, holderV := findLightest(s, wg, trees, leader, isLeader, finished, minKey, maxKey, steps)
		if isLeader && !foundMin {
			finished = true
		}

		// Merge: the holder u of a tails-component's lightest edge {u,v} asks
		// v for its component's coin and leader; on heads, the edge joins the
		// forest and the component adopts v's leader.
		isHolder := foundMin && holderV >= 0 && !coinIsHeads
		var items2 []comm.TreeItem
		if isHolder {
			items2 = append(items2, comm.TreeItem{Group: uint64(holderV), Origin: me})
		}
		trees2 := s.SetupTrees(items2)
		info := comm.Pair{A: boolU64(coinIsHeads), B: uint64(leader)}
		got2 := comm.Multicast(s, trees2, true, uint64(me), info, comm.PairWire{}, 1)
		newLeader := -1
		if isHolder {
			for _, gv := range got2 {
				if gv.Group != uint64(holderV) {
					continue
				}
				if gv.Val.A != 0 { // other side flipped heads
					out = append(out, [2]int{me, holderV})
					newLeader = int(gv.Val.B)
				}
			}
		}
		if newLeader != -1 && me != leader {
			ctx.SendWord(leader, ncc.Word(dhdr(dtagNewLeader)|uint64(uint32(newLeader))))
		}
		s.Advance()
		adopted := -1
		if isLeader && newLeader != -1 { // leader itself held the edge
			adopted = newLeader
		}
		s.DrainDirect(func(from ncc.NodeID, ws []uint64) {
			if isLeader && ws[0]>>56 == dtagNewLeader {
				adopted = int(int32(dbody(ws[0])))
			}
		})
		// Leader announces the (possibly new) leader to the component.
		ann := uint64(leader)
		if isLeader && adopted != -1 {
			ann = uint64(adopted)
		}
		got3 := comm.Multicast(s, trees, isLeader, uint64(me), ann, comm.U64Wire{}, 1)
		if isLeader {
			if adopted != -1 {
				leader = adopted
			}
		} else {
			for _, gv := range got3 {
				leader = int(gv.Val)
			}
		}
		// Terminate once no component found an outgoing edge.
		if !s.AnyTrue(isLeader && foundMin) {
			return out, leader
		}
	}
}

// findLightest runs the quaternary sketch search of Section 3 for every
// component simultaneously. It returns found=true at the leader when the
// component has an outgoing edge, and at the unique component member incident
// to the lightest one, which also learns the outside endpoint holderV
// (-1 everywhere else).
func findLightest(s *comm.Session, wg *graph.Weighted, trees *comm.Trees, leader int, isLeader, finished bool, minKey, maxKey uint64, steps int) (found bool, holderV int) {
	ctx := s.Ctx
	me := ctx.ID()
	n := ctx.N()
	nbrs := wg.Neighbors(me)

	lo, hi := minKey, maxKey
	exists := false
	var fam *hashing.Family // reseeded for each step

	for step := 0; step <= steps; step++ {
		// Leader shares the current range; bit 63 flags an active search.
		var rangeMsg comm.Pair
		if isLeader && !finished {
			flag := uint64(1) << 63
			if step > 0 && !exists {
				flag = 0
			}
			rangeMsg = comm.Pair{A: lo | flag, B: hi}
		}
		gotR := comm.Multicast(s, trees, isLeader, uint64(me), rangeMsg, comm.PairWire{}, 1)
		myLo, myHi, active := lo, hi, isLeader && !finished && (step == 0 || exists)
		for _, gv := range gotR {
			active = gv.Val.A&(1<<63) != 0
			myLo, myHi = gv.Val.A&^(1<<63), gv.Val.B
		}

		// Members sketch their incident edges over three prefixes of the
		// range (full range in step 0 for the existence test).
		fam = s.SharedFamily(&fam, 0x736b65746368) // fresh trial functions per step
		var sk comm.Sketch3
		var m [3]uint64
		if step == 0 {
			m[0], m[1], m[2] = myHi, myHi, myHi
		} else {
			span := myHi - myLo
			m[0] = myLo + span/4
			m[1] = myLo + span/2
			m[2] = myLo + span/4*3
		}
		if active {
			for _, v32 := range nbrs {
				v := int(v32)
				k := seq.SortKey(me, v, wg.Weight(me, v), n)
				if k < myLo || k > myHi {
					continue
				}
				up := fam.Hash(hashing.PackEdge(me, v))
				down := fam.Hash(hashing.PackEdge(v, me))
				for i := 0; i < 3; i++ {
					if k <= m[i] {
						sk.S[i].Up ^= up
						sk.S[i].Down ^= down
					}
				}
			}
		}
		var items []comm.Agg[comm.Sketch3]
		if active {
			items = append(items, comm.Agg[comm.Sketch3]{Group: uint64(leader), Target: leader, Val: sk})
		}
		res := comm.Aggregate(s, items, comm.MergeSketch3, 1)
		if isLeader && !finished && (step == 0 || exists) {
			var agg comm.Sketch3
			for _, gv := range res {
				agg = gv.Val
			}
			outIn := func(i int) bool { return agg.S[i].Up != agg.S[i].Down }
			if step == 0 {
				exists = outIn(0)
			} else {
				switch {
				case outIn(0):
					hi = m[0]
				case outIn(1):
					lo, hi = m[0]+1, m[1]
				case outIn(2):
					lo, hi = m[1]+1, m[2]
				default:
					lo = m[2] + 1
				}
			}
		}
	}

	// Leader announces the final key (bit 63 set when an edge exists).
	var ann uint64
	if isLeader && !finished && exists {
		ann = lo | 1<<63
	}
	gotA := comm.Multicast(s, trees, isLeader, uint64(me), ann, comm.U64Wire{}, 1)
	final, ok := uint64(0), false
	if isLeader {
		final, ok = lo, !finished && exists
	}
	for _, gv := range gotA {
		if gv.Val&(1<<63) != 0 {
			final, ok = gv.Val&^(1<<63), true
		}
	}
	holderV = -1
	if ok {
		for _, v32 := range nbrs {
			v := int(v32)
			if seq.SortKey(me, v, wg.Weight(me, v), n) == final {
				holderV = v
			}
		}
	}
	return ok, holderV
}
