package core

import (
	"testing"

	"ncc/internal/graph"
	"ncc/internal/ncc"
	"ncc/internal/verify"
)

// TestColoringPaletteNeverExhausts is the regression test for the palette
// floor: on this graph every node can land in one level, node 2's palette
// would be 2(1+eps)*maxOut = 3 without the conflict-degree floor, and its
// three neighbors (two smaller-id level peers plus out-neighbor 3) can fix
// all three colors before node 2 does — randFree then panics with
// "invalid argument to IntN". Seeds 8, 13, and 23 reproduced the panic.
func TestColoringPaletteNeverExhausts(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.Build()
	for seed := int64(1); seed <= 40; seed++ {
		res, _, err := RunColoring(ncc.Config{N: 4, Seed: seed}, g)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		colors := make([]int, g.N())
		palette := 0
		for u, r := range res {
			colors[u], palette = r.Color, r.Palette
		}
		if err := verify.Coloring(g, colors, palette); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
