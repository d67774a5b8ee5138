package core

import (
	"cmp"
	"fmt"
	"slices"

	"ncc/internal/comm"
	"ncc/internal/hashing"
	"ncc/internal/ncc"
)

// identification implements the Identification Algorithm of Section 4.1:
// learning nodes determine which of their neighbors are playing, by sketching
// their incident edges into q trials with s shared hash functions, letting
// the playing side aggregate its (blue) contributions, and peeling the
// XOR/count difference cells to recover the red edges one at a time.

// trialFns holds the s shared hash functions mapping directed edge ids to
// trials; every node derives the same functions from the session's shared
// randomness. Its storage is reused from one identification to the next.
type trialFns struct {
	fams []*hashing.Family // len is this call's s; the families beyond it are kept for reuse
	q    int
	out  []int // trials' result
}

// reseed derives this call's count functions into t, reseeding the families
// it already holds in place; the words are drawn from the same stream in the
// same order as fresh families would draw them.
func (t *trialFns) reseed(s *comm.Session, count, q int) {
	stream := s.SharedStream(0x747269616c) // "trial"
	k := max(4, ncc.CeilLog2(s.Ctx.N())+2)
	t.fams = slices.Grow(t.fams[:0], count)[:count]
	for i, f := range t.fams {
		if f == nil || f.K() != k {
			t.fams[i] = hashing.NewFamily(k, stream)
		} else {
			f.Reseed(stream)
		}
	}
	t.q = q
}

// trials returns the distinct trials the directed edge participates in, in
// a slice that the next call reuses.
func (t *trialFns) trials(edge uint64) []int {
	out := t.out[:0]
	for _, f := range t.fams {
		tr := int(f.Range(edge, uint64(t.q)))
		if !slices.Contains(out, tr) {
			out = append(out, tr)
		}
	}
	t.out = out
	return out
}

// identScratch is one node's reusable storage for runIdentification, kept
// across the orientation's phases.
type identScratch struct {
	fns   trialFns
	items []comm.Agg[comm.XorCount]
	cells []idCell
	reds  []int
}

// idCell is one trial's difference cell: the XOR and the count of the red
// edges hashed into trial tr.
type idCell struct {
	x  uint64
	tr int32
	c  int32
}

// identifySpec describes one node's role in an identification round.
type identifySpec struct {
	// Learning side: candidate neighbor ids with unknown status, in
	// ascending order, and the known number of red (playing-complement)
	// edges among them, which equals d_i(u) in the orientation algorithm.
	learning   bool
	candidates []int
	redCount   int
	// Playing side: the potentially-learning neighbors this node plays for.
	playing bool
	playFor []int
	// Parameters: number of hash functions, trials, and the delivery-window
	// bound for the underlying aggregation.
	s, q, lhat2 int
}

// identifyResult reports what a learning node discovered.
type identifyResult struct {
	reds []int // identified red (non-playing) neighbors; valid until the next call
	ok   bool  // all redCount red edges identified
}

// runIdentification executes one collective identification. Every node must
// call it (with zeroed spec fields when it is neither learning nor playing).
// It works in sc's storage.
func runIdentification(s *comm.Session, sc *identScratch, spec identifySpec) identifyResult {
	me := s.Ctx.ID()
	fns := &sc.fns
	fns.reseed(s, spec.s, spec.q)

	// Playing side: contribute blue-edge sketches to the learners' trial
	// groups. Group id of learner w's trial t is w*q + t.
	items := sc.items[:0]
	if spec.playing {
		items = slices.Grow(items, len(spec.playFor)*spec.s)
		for _, w := range spec.playFor {
			e := hashing.PackEdge(w, me)
			for _, tr := range fns.trials(e) {
				items = append(items, comm.Agg[comm.XorCount]{
					Group:  uint64(w)*uint64(spec.q) + uint64(tr),
					Target: w,
					Val:    comm.XorCount{X: e, C: 1},
				})
			}
		}
	}
	sc.items = items
	res := comm.Aggregate(s, items, comm.MergeXorCount, spec.lhat2)

	if !spec.learning {
		return identifyResult{ok: true}
	}

	// Cells over all candidate edges, minus the aggregated blue
	// contributions: one entry per contribution, sorted by trial and merged.
	cells := slices.Grow(sc.cells[:0], len(spec.candidates)*spec.s+len(res))
	for _, v := range spec.candidates {
		e := hashing.PackEdge(me, v)
		for _, tr := range fns.trials(e) {
			cells = append(cells, idCell{x: e, tr: int32(tr), c: 1})
		}
	}
	for _, gv := range res {
		if int(gv.Group/uint64(spec.q)) != me {
			panic(fmt.Sprintf("core: node %d received identification group %d for another learner", me, gv.Group))
		}
		cells = append(cells, idCell{x: gv.Val.X, tr: int32(gv.Group % uint64(spec.q)), c: -int32(gv.Val.C)})
	}
	slices.SortFunc(cells, func(a, b idCell) int { return cmp.Compare(a.tr, b.tr) })
	merged := cells[:0]
	for _, cl := range cells {
		if k := len(merged) - 1; k >= 0 && merged[k].tr == cl.tr {
			merged[k].x ^= cl.x
			merged[k].c += cl.c
			continue
		}
		merged = append(merged, cl)
	}
	cells = merged
	sc.cells = cells

	// Peel: any cell holding exactly one red edge reveals it. Peeling is
	// confluent, so the order the cells are scanned in does not change the
	// set of edges found.
	reds := sc.reds[:0]
	for {
		i := slices.IndexFunc(cells, func(cl idCell) bool { return cl.c == 1 })
		if i < 0 {
			break
		}
		e := cells[i].x
		u, v := hashing.UnpackEdge(e)
		if _, ok := slices.BinarySearch(spec.candidates, v); u != me || !ok {
			// A corrupted cell would indicate a protocol bug, not a sketch
			// failure: counts are exact.
			panic(fmt.Sprintf("core: node %d peeled inconsistent edge (%d,%d)", me, u, v))
		}
		reds = append(reds, v)
		for _, tr := range fns.trials(e) {
			j, _ := slices.BinarySearchFunc(cells, int32(tr), func(cl idCell, tr int32) int { return cmp.Compare(cl.tr, tr) })
			cells[j].x ^= e
			cells[j].c--
		}
	}
	sc.reds = reds
	return identifyResult{reds: reds, ok: len(reds) == spec.redCount}
}
