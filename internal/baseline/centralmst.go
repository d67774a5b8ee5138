package baseline

import (
	"ncc/internal/comm"
	"ncc/internal/graph"
	"ncc/internal/seq"
)

// dtagEdge tags the gathered weighted edges: word 0 packs the tag and both
// endpoints, word 1 the weight. Shipped through the engine's inline word
// paths like all session traffic.
const dtagEdge uint64 = comm.DirectTagMin + 0x11

// CentralizedMST is the gather-and-solve baseline: every node ships its
// incident edges to node 0 (spread over a randomized window; node 0's
// receive capacity makes this Theta(m / log n) rounds), node 0 runs Kruskal
// locally and pipelines the forest edges back through the butterfly.
// Returns the full forest at every node. The crossover against the
// distributed MST's O(log^4 n) rounds is experiment T1-MST's ablation.
func CentralizedMST(s *comm.Session, wg *graph.Weighted) [][2]int {
	ctx := s.Ctx
	me := ctx.ID()
	var edges []seq.Edge
	if me == 0 {
		for _, v32 := range wg.Neighbors(0) {
			v := int(v32)
			if v > 0 {
				edges = append(edges, seq.Edge{U: 0, V: v, W: wg.Weight(0, v)})
			}
		}
	}
	gatherEdges(s, wg.Graph, dtagEdge, wg.Weight, func(u, v int, w int64) {
		edges = append(edges, seq.Edge{U: u, V: v, W: w})
	})

	// Solve locally at node 0.
	var forest [][2]int
	var words []uint64
	if me == 0 {
		b := graph.NewBuilder(ctx.N())
		for _, e := range edges {
			b.AddEdge(e.U, e.V)
		}
		sub := graph.NewWeighted(b.Build())
		for _, e := range edges {
			sub.SetWeight(e.U, e.V, e.W)
		}
		mst, _ := seq.MSTKruskal(sub)
		for _, e := range mst {
			forest = append(forest, [2]int{e.U, e.V})
			words = append(words, uint64(e.U)<<32|uint64(e.V))
		}
	}

	// Announce the forest size, then pipeline the edges to everyone.
	sizeW := s.BroadcastWords(0, []uint64{uint64(len(words))}, 1)
	size := int(sizeW[0])
	edgeWords := s.BroadcastWords(0, words, size)
	if me != 0 {
		for _, w := range edgeWords {
			forest = append(forest, [2]int{int(w >> 32), int(uint32(w))})
		}
	}
	return forest
}
