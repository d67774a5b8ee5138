package core

import (
	"testing"
	"testing/quick"

	"ncc/internal/graph"
	"ncc/internal/ncc"
	"ncc/internal/verify"
)

// Property: on arbitrary random graphs (any density, any seed), the whole
// §4/§5 pipeline produces verifiable outputs with zero drops. This is the
// repository's broadest end-to-end invariant check.
func TestPipelinePropertyRandomGraphs(t *testing.T) {
	if testing.Short() {
		t.Skip("property pipeline is slow")
	}
	check := func(seed int64, n8 uint8, p8 uint8) bool {
		n := 8 + int(n8)%24
		p := 0.05 + float64(p8%40)/100
		g := graph.GNP(n, p, seed)
		cfg := ncc.Config{N: n, Seed: seed}

		os, st, err := RunOrientation(cfg, g, OrientParams{})
		if err != nil || st.Dropped() != 0 {
			return false
		}
		if verify.Orientation(g, OutLists(os), 0) != nil {
			return false
		}
		in, st2, err := RunMIS(cfg, g)
		if err != nil || st2.Dropped() != 0 || verify.MIS(g, in) != nil {
			return false
		}
		mate, st3, err := RunMatching(cfg, g)
		if err != nil || st3.Dropped() != 0 || verify.Matching(g, mate) != nil {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// Property: MST equals Kruskal for arbitrary random weighted graphs.
func TestMSTPropertyRandomGraphs(t *testing.T) {
	if testing.Short() {
		t.Skip("property MST is slow")
	}
	check := func(seed int64, n8 uint8, w8 uint8) bool {
		n := 6 + int(n8)%20
		maxW := 1 + int64(w8)%500
		g := graph.GNP(n, 0.25, seed)
		wg := graph.RandomWeights(g, maxW, seed+1)
		perNode, st, err := RunMST(ncc.Config{N: n, Seed: seed}, wg)
		if err != nil || st.Dropped() != 0 {
			return false
		}
		return verify.MST(wg, CollectMSTEdges(perNode)) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// Property: BFS distances match sequential BFS from random sources on random
// graphs (including disconnected ones).
func TestBFSPropertyRandomGraphs(t *testing.T) {
	if testing.Short() {
		t.Skip("property BFS is slow")
	}
	check := func(seed int64, n8, src8 uint8) bool {
		n := 6 + int(n8)%20
		g := graph.GNP(n, 0.15, seed) // often disconnected: exercises -1 paths
		src := int(src8) % n
		res, st, err := RunBFS(ncc.Config{N: n, Seed: seed}, g, src)
		if err != nil || st.Dropped() != 0 {
			return false
		}
		dist := make([]int, n)
		parent := make([]int, n)
		for u, r := range res {
			dist[u], parent[u] = r.Dist, r.Parent
		}
		return verify.BFS(g, src, dist, parent, true) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}
