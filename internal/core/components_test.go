package core

import (
	"testing"

	"ncc/internal/graph"
	"ncc/internal/ncc"
)

func TestComponentLabelsMatchUnionFind(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"disjoint":  graph.Disjoint(4, 6),
		"connected": graph.KForest(30, 2, 3),
		"mixed":     graph.GNP(40, 0.05, 9),
		"empty":     graph.Empty(10),
	} {
		t.Run(name, func(t *testing.T) {
			cfg := ncc.Config{N: g.N(), Seed: 12}
			labels, _, err := RunComponents(cfg, g)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := graph.Components(g)
			// Same label iff same component.
			for u := 0; u < g.N(); u++ {
				for v := u + 1; v < g.N(); v++ {
					same := want[u] == want[v]
					got := labels[u] == labels[v]
					if same != got {
						t.Fatalf("nodes %d,%d: same-component=%v but labels %d,%d", u, v, same, labels[u], labels[v])
					}
				}
			}
			// Labels are members of their own component.
			for u := 0; u < g.N(); u++ {
				if want[labels[u]] != want[u] {
					t.Fatalf("node %d labeled by foreign node %d", u, labels[u])
				}
			}
		})
	}
}
