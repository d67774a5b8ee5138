package baseline

import (
	"ncc/internal/comm"
	"ncc/internal/graph"
	"ncc/internal/ncc"
)

// dtagPlainEdge tags gathered unweighted edges: one word packs the tag and
// both endpoints (24 bits each), half the traffic of the weighted gather.
const dtagPlainEdge uint64 = comm.DirectTagMin + 0x12

// CentralizedSolve is the generic gather-and-solve baseline: every node ships
// its incident edges to node 0 (spread over a randomized window; node 0's
// receive capacity makes this Theta(m / log n) rounds), node 0 rebuilds the
// graph and runs solve locally, and the per-node answers are pipelined back
// through the butterfly (another Theta(n / log n) rounds). Each node returns
// its own answer word. solve runs at node 0 only and must return exactly one
// word per node; it is the sequential reference the paper's polylog
// algorithms (MIS, coloring, ...) are measured against.
func CentralizedSolve(s *comm.Session, g *graph.Graph, solve func(g *graph.Graph) []uint64) uint64 {
	me := s.Ctx.ID()
	n := s.Ctx.N()
	b := graph.NewBuilder(n)
	if me == 0 {
		for _, v32 := range g.Neighbors(0) {
			b.AddEdge(0, int(v32))
		}
	}
	gatherEdges(s, g, dtagPlainEdge, nil, func(u, v int, _ int64) { b.AddEdge(u, v) })

	// Solve locally at node 0, then broadcast the n-word answer vector.
	var words []uint64
	if me == 0 {
		words = solve(b.Build())
		if len(words) != n {
			panic("baseline: CentralizedSolve solver must return one word per node")
		}
	}
	answers := s.BroadcastWords(0, words, n)
	return answers[me]
}

// gatherEdges ships every edge of g to node 0, the gather half of the
// centralized baselines. Each node other than 0 sends each incident edge
// {me, v} with v > me in a round drawn uniformly from a window whose length
// keeps node 0's expected offered load under half its receive capacity, so
// the gather takes Theta(m / log n) rounds. A frame's first word packs tag
// and both endpoints (24 bits each); a non-nil weight adds the edge weight as
// a second word. Node 0 passes each received edge to got; its own edges are
// the caller's to add.
func gatherEdges(s *comm.Session, g *graph.Graph, tag uint64, weight func(u, v int) int64, got func(u, v int, w int64)) {
	ctx := s.Ctx
	me := ctx.ID()
	// Beyond 2^24 nodes the packed endpoint ids would silently wrap.
	if ctx.N() > 1<<24 {
		panic("baseline: the edge gather's encoding caps n at 2^24")
	}

	// Count edges globally (each edge counted at its smaller endpoint).
	local := 0
	for _, v := range g.Neighbors(me) {
		if int(v) > me {
			local++
		}
	}
	mU, _ := s.SumCount(uint64(local), true)
	capacity := ctx.MinCap()
	window := 2*(int(mU)+capacity-1)/capacity + 4

	type job struct {
		at   int
		head uint64
		w    int64
	}
	var jobs []job
	if me != 0 {
		for _, v32 := range g.Neighbors(me) {
			if v := int(v32); v > me {
				j := job{at: ctx.Rand().IntN(window), head: tag<<56 | uint64(me)<<24 | uint64(v)}
				if weight != nil {
					j.w = weight(me, v)
				}
				jobs = append(jobs, j)
			}
		}
	}
	for t := 0; t < window; t++ {
		for _, j := range jobs {
			if j.at != t {
				continue
			}
			if weight != nil {
				ctx.SendWords2(0, ncc.Words2{j.head, uint64(j.w)})
			} else {
				ctx.SendWord(0, ncc.Word(j.head))
			}
		}
		s.Advance()
		s.DrainDirect(func(_ ncc.NodeID, ws []uint64) {
			if me != 0 || ws[0]>>56 != tag {
				return
			}
			var w int64
			if weight != nil {
				w = int64(ws[1])
			}
			got(int(ws[0]>>24&0xFFFFFF), int(ws[0]&0xFFFFFF), w)
		})
	}
}
