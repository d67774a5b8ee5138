package core

import (
	"testing"

	"ncc/internal/graph"
	"ncc/internal/ncc"
	"ncc/internal/verify"
)

func testGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"path16":    graph.Path(16),
		"cycle13":   graph.Cycle(13),
		"star24":    graph.Star(24),
		"grid4x5":   graph.Grid(4, 5),
		"tree31":    graph.BinaryTree(31),
		"complete9": graph.Complete(9),
		"kforest2":  graph.KForest(40, 2, 7),
		"kforest4":  graph.KForest(48, 4, 9),
		"gnp":       graph.GNP(32, 0.15, 5),
		"disjoint":  graph.Disjoint(4, 6),
		"empty":     graph.Empty(8),
		"twonodes":  graph.Path(2),
		"pa":        graph.PreferentialAttachment(50, 3, 3),
	}
}

func TestOrientationValidOnManyGraphs(t *testing.T) {
	for name, g := range testGraphs() {
		t.Run(name, func(t *testing.T) {
			cfg := ncc.Config{N: g.N(), Seed: 11}
			os, st, err := RunOrientation(cfg, g, OrientParams{})
			if err != nil {
				t.Fatalf("orientation failed: %v", err)
			}
			if err := verify.Orientation(g, OutLists(os), 0); err != nil {
				t.Fatalf("invalid orientation: %v", err)
			}
			// Outdegree bound: every out-list stays within the certified
			// d* = max over phases of active degrees, which is O(a).
			deg, _ := graph.Degeneracy(g)
			bound := max(4*deg, 4) // d* <= 2*avg <= 4a and a <= degeneracy
			if got := verify.MaxOutdegree(OutLists(os)); got > bound {
				t.Errorf("max outdegree %d exceeds 4*degeneracy bound %d", got, bound)
			}
			for id, o := range os {
				if o.Rescues != 0 {
					t.Errorf("node %d needed %d rescues", id, o.Rescues)
				}
			}
			if st.Dropped() != 0 {
				t.Errorf("%d messages dropped", st.Dropped())
			}
		})
	}
}

func TestOrientationCrossNodeConsistency(t *testing.T) {
	g := graph.KForest(36, 3, 13)
	cfg := ncc.Config{N: g.N(), Seed: 3}
	os, _, err := RunOrientation(cfg, g, OrientParams{})
	if err != nil {
		t.Fatal(err)
	}
	levels := os[0].Levels
	for u, o := range os {
		if o.Levels != levels {
			t.Fatalf("node %d sees %d levels, node 0 sees %d", u, o.Levels, levels)
		}
		if o.Level < 1 || o.Level > levels {
			t.Fatalf("node %d has out-of-range level %d", u, o.Level)
		}
		if len(o.Same)+len(o.Earlier)+len(o.Later) != g.Degree(u) {
			t.Fatalf("node %d classified %d neighbors, degree is %d",
				u, len(o.Same)+len(o.Earlier)+len(o.Later), g.Degree(u))
		}
		for _, v := range o.Same {
			if os[v].Level != o.Level {
				t.Errorf("node %d says %d is same-level, but levels are %d vs %d", u, v, o.Level, os[v].Level)
			}
		}
		for _, v := range o.Earlier {
			if os[v].Level >= o.Level {
				t.Errorf("node %d says %d is earlier, but levels are %d vs %d", u, v, o.Level, os[v].Level)
			}
		}
		for _, v := range o.Later {
			if os[v].Level <= o.Level {
				t.Errorf("node %d says %d is later, but levels are %d vs %d", u, v, o.Level, os[v].Level)
			}
		}
	}
}

func TestOrientationRoundsScaleWithArboricity(t *testing.T) {
	// Theorem 4.12: O((a + log n) log n). Doubling the arboricity at fixed n
	// must not blow up rounds superlinearly.
	const n = 64
	var prev int
	for _, k := range []int{1, 2, 4} {
		g := graph.KForest(n, k, 21)
		cfg := ncc.Config{N: n, Seed: 5}
		_, st, err := RunOrientation(cfg, g, OrientParams{})
		if err != nil {
			t.Fatal(err)
		}
		if prev > 0 && st.Rounds > 6*prev {
			t.Errorf("k=%d: rounds %d grew too fast from %d", k, st.Rounds, prev)
		}
		prev = st.Rounds
	}
}

// Forcing tiny sketch parameters exercises the rescue fallback; the result
// must still be a valid orientation.
func TestOrientationRescuePathStillCorrect(t *testing.T) {
	g := graph.GNP(24, 0.3, 2)
	cfg := ncc.Config{N: g.N(), Seed: 2}
	os, _, err := RunOrientation(cfg, g, OrientParams{CHash: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Orientation(g, OutLists(os), 0); err != nil {
		t.Fatalf("invalid orientation on rescue path: %v", err)
	}
}

func TestOrientationDeterministic(t *testing.T) {
	g := graph.KForest(20, 2, 1)
	cfg := ncc.Config{N: g.N(), Seed: 77}
	a, _, err1 := RunOrientation(cfg, g, OrientParams{})
	b, _, err2 := RunOrientation(cfg, g, OrientParams{})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for u := range a {
		if a[u].Level != b[u].Level || len(a[u].Out) != len(b[u].Out) {
			t.Fatalf("node %d differs across identical runs", u)
		}
	}
}
