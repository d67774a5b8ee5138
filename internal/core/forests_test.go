package core

import (
	"testing"

	"ncc/internal/graph"
	"ncc/internal/ncc"
	"ncc/internal/verify"
)

func TestForestDecompositionIsValidPartition(t *testing.T) {
	for name, g := range testGraphs() {
		if g.N() < 2 {
			continue
		}
		t.Run(name, func(t *testing.T) {
			cfg := ncc.Config{N: g.N(), Seed: 19}
			idxs, os, count, _, err := RunForestDecomposition(cfg, g)
			if err != nil {
				t.Fatal(err)
			}
			forests := ForestsOf(g, os, idxs, count)
			if err := verify.ForestPartition(g, forests); err != nil {
				t.Fatalf("invalid forest partition: %v", err)
			}
			// Nash-Williams: at least arboricity-many forests are necessary;
			// we promise O(a), concretely <= 4*degeneracy.
			deg, _ := graph.Degeneracy(g)
			if g.M() > 0 && count > max(4*deg, 4) {
				t.Errorf("%d forests exceed 4*degeneracy = %d", count, 4*deg)
			}
			if lb := graph.ArboricityLowerBound(g); count < lb {
				t.Errorf("%d forests below the Nash-Williams lower bound %d", count, lb)
			}
		})
	}
}

func TestForestCountConsistentAcrossNodes(t *testing.T) {
	g := graph.KForest(30, 3, 5)
	cfg := ncc.Config{N: g.N(), Seed: 2}
	idxs, os, count, _, err := RunForestDecomposition(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	for u, o := range os {
		if len(idxs[u]) != len(o.Out) {
			t.Fatalf("node %d: %d indices for %d out-edges", u, len(idxs[u]), len(o.Out))
		}
		for _, f := range idxs[u] {
			if f < 0 || f >= count {
				t.Fatalf("node %d: forest index %d out of range [0,%d)", u, f, count)
			}
		}
	}
}
