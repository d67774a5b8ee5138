package core

import (
	"testing"

	"ncc/internal/graph"
	"ncc/internal/ncc"
	"ncc/internal/seq"
	"ncc/internal/verify"
)

func TestBFSMatchesSequential(t *testing.T) {
	for name, g := range testGraphs() {
		if g.N() < 2 {
			continue
		}
		t.Run(name, func(t *testing.T) {
			cfg := ncc.Config{N: g.N(), Seed: 9}
			res, st, err := RunBFS(cfg, g, 0)
			if err != nil {
				t.Fatalf("BFS failed: %v", err)
			}
			dist := make([]int, g.N())
			parent := make([]int, g.N())
			for u, r := range res {
				dist[u], parent[u] = r.Dist, r.Parent
			}
			// The paper's tie-break: parent is the minimum-id predecessor.
			if err := verify.BFS(g, 0, dist, parent, true); err != nil {
				t.Fatalf("invalid BFS tree: %v", err)
			}
			if st.Dropped() != 0 {
				t.Errorf("%d messages dropped", st.Dropped())
			}
		})
	}
}

func TestBFSFromNonzeroSource(t *testing.T) {
	g := graph.Grid(5, 6)
	cfg := ncc.Config{N: g.N(), Seed: 4}
	res, _, err := RunBFS(cfg, g, 17)
	if err != nil {
		t.Fatal(err)
	}
	dist := make([]int, g.N())
	parent := make([]int, g.N())
	for u, r := range res {
		dist[u], parent[u] = r.Dist, r.Parent
	}
	if err := verify.BFS(g, 17, dist, parent, true); err != nil {
		t.Fatal(err)
	}
}

func TestMISValidOnManyGraphs(t *testing.T) {
	for name, g := range testGraphs() {
		if g.N() < 2 {
			continue
		}
		t.Run(name, func(t *testing.T) {
			cfg := ncc.Config{N: g.N(), Seed: 31}
			in, st, err := RunMIS(cfg, g)
			if err != nil {
				t.Fatalf("MIS failed: %v", err)
			}
			if err := verify.MIS(g, in); err != nil {
				t.Fatalf("invalid MIS: %v", err)
			}
			if st.Dropped() != 0 {
				t.Errorf("%d messages dropped", st.Dropped())
			}
		})
	}
}

func TestMatchingValidOnManyGraphs(t *testing.T) {
	for name, g := range testGraphs() {
		if g.N() < 2 {
			continue
		}
		t.Run(name, func(t *testing.T) {
			cfg := ncc.Config{N: g.N(), Seed: 13}
			mate, st, err := RunMatching(cfg, g)
			if err != nil {
				t.Fatalf("matching failed: %v", err)
			}
			if err := verify.Matching(g, mate); err != nil {
				t.Fatalf("invalid matching: %v", err)
			}
			if st.Dropped() != 0 {
				t.Errorf("%d messages dropped", st.Dropped())
			}
		})
	}
}

func TestColoringValidOnManyGraphs(t *testing.T) {
	for name, g := range testGraphs() {
		if g.N() < 2 {
			continue
		}
		t.Run(name, func(t *testing.T) {
			cfg := ncc.Config{N: g.N(), Seed: 17}
			res, st, err := RunColoring(cfg, g)
			if err != nil {
				t.Fatalf("coloring failed: %v", err)
			}
			colors := make([]int, g.N())
			palette := 0
			for u, r := range res {
				colors[u] = r.Color
				palette = r.Palette
			}
			if err := verify.Coloring(g, colors, palette); err != nil {
				t.Fatalf("invalid coloring: %v", err)
			}
			// O(a) bound: palette is 2(1+eps)*ahat with ahat <= 4a and
			// a <= degeneracy+... allow the full certified constant.
			deg, _ := graph.Degeneracy(g)
			if palette > max(3, 2*(4*max(deg, 1)+1)) {
				t.Errorf("palette %d too large for degeneracy %d", palette, deg)
			}
			if st.Dropped() != 0 {
				t.Errorf("%d messages dropped", st.Dropped())
			}
		})
	}
}

func TestMSTMatchesKruskal(t *testing.T) {
	for name, g := range testGraphs() {
		if g.N() < 2 {
			continue
		}
		t.Run(name, func(t *testing.T) {
			wg := graph.RandomWeights(g, 1000, 23)
			cfg := ncc.Config{N: g.N(), Seed: 29}
			perNode, st, err := RunMST(cfg, wg)
			if err != nil {
				t.Fatalf("MST failed: %v", err)
			}
			edges := CollectMSTEdges(perNode)
			if err := verify.MST(wg, edges); err != nil {
				t.Fatalf("invalid MST: %v", err)
			}
			if st.Dropped() != 0 {
				t.Errorf("%d messages dropped", st.Dropped())
			}
		})
	}
}

func TestMSTUnitWeights(t *testing.T) {
	// With all weights equal, the edge-key tie-break alone must produce the
	// unique minimum forest.
	g := graph.GNP(24, 0.2, 3)
	wg := graph.NewWeighted(g)
	cfg := ncc.Config{N: g.N(), Seed: 1}
	perNode, _, err := RunMST(cfg, wg)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.MST(wg, CollectMSTEdges(perNode)); err != nil {
		t.Fatal(err)
	}
}

func TestMSTWideWeights(t *testing.T) {
	g := graph.KForest(30, 2, 8)
	wg := graph.RandomWeights(g, (1<<23)-1, 5)
	cfg := ncc.Config{N: g.N(), Seed: 6}
	perNode, _, err := RunMST(cfg, wg)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.MST(wg, CollectMSTEdges(perNode)); err != nil {
		t.Fatal(err)
	}
}

func TestMSTOutputContract(t *testing.T) {
	// Section 3: for every MST edge, at least one endpoint knows it; no node
	// reports a non-incident edge.
	g := graph.Grid(4, 6)
	wg := graph.RandomWeights(g, 100, 2)
	cfg := ncc.Config{N: g.N(), Seed: 8}
	perNode, _, err := RunMST(cfg, wg)
	if err != nil {
		t.Fatal(err)
	}
	for u, edges := range perNode {
		for _, e := range edges {
			if e[0] != u && e[1] != u {
				t.Errorf("node %d reported non-incident edge %v", u, e)
			}
		}
	}
	want, _ := seq.MSTKruskal(wg)
	if len(CollectMSTEdges(perNode)) != len(want) {
		t.Errorf("forest has %d edges, want %d", len(CollectMSTEdges(perNode)), len(want))
	}
}

func TestMISRandomized(t *testing.T) {
	// Different seeds may give different sets, all valid.
	g := graph.KForest(30, 2, 4)
	for seed := int64(0); seed < 3; seed++ {
		cfg := ncc.Config{N: g.N(), Seed: seed}
		in, _, err := RunMIS(cfg, g)
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.MIS(g, in); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
