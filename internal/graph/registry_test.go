package graph

import (
	"strings"
	"testing"

	"ncc/internal/param"
)

func TestBuildEveryFamilyWithDefaults(t *testing.T) {
	for _, f := range Families.All() {
		if f.FromFile {
			continue // needs a stored graph, not defaults; covered in graphio tests
		}
		t.Run(f.Name, func(t *testing.T) {
			g, err := Build(Spec{Family: f.Name, Seed: 1})
			if err != nil {
				t.Fatalf("defaults rejected: %v", err)
			}
			if g.N() < 1 {
				t.Errorf("built graph has %d nodes", g.N())
			}
		})
	}
}

func TestBuildMatchesDirectGenerators(t *testing.T) {
	cases := []struct {
		spec Spec
		want *Graph
	}{
		{Spec{Family: "gnm", Params: param.Values{"n": 32, "m": 64}, Seed: 5}, GNM(32, 64, 5)},
		{Spec{Family: "gnm", Params: param.Values{"n": 32}, Seed: 5}, GNM(32, 96, 5)}, // m=0 -> 3n
		{Spec{Family: "kforest", Params: param.Values{"n": 20, "k": 3}, Seed: 7}, KForest(20, 3, 7)},
		{Spec{Family: "grid", Params: param.Values{"rows": 3, "cols": 4}}, Grid(3, 4)},
		{Spec{Family: "hypercube", Params: param.Values{"k": 4}}, Hypercube(4)},
		{Spec{Family: "pa", Params: param.Values{"n": 30, "k": 2}, Seed: 9}, PreferentialAttachment(30, 2, 9)},
	}
	for _, c := range cases {
		g, err := Build(c.spec)
		if err != nil {
			t.Fatalf("%v: %v", c.spec, err)
		}
		if g.N() != c.want.N() || g.M() != c.want.M() {
			t.Errorf("%v: got n=%d m=%d, want n=%d m=%d", c.spec, g.N(), g.M(), c.want.N(), c.want.M())
		}
		for u := 0; u < g.N(); u++ {
			for _, v := range c.want.Neighbors(u) {
				if !g.HasEdge(u, int(v)) {
					t.Fatalf("%v: edge (%d,%d) missing from registry-built graph", c.spec, u, v)
				}
			}
		}
	}
}

func TestBuildRejectsUnknownFamily(t *testing.T) {
	_, err := Build(Spec{Family: "nope"})
	if err == nil || !strings.Contains(err.Error(), `unknown graph family "nope"`) {
		t.Errorf("err = %v", err)
	}
}

func TestBuildRejectsUnknownParam(t *testing.T) {
	_, err := Build(Spec{Family: "grid", Params: param.Values{"n": 64}})
	if err == nil || !strings.Contains(err.Error(), "unknown params n") {
		t.Errorf("err = %v", err)
	}
}

func TestBuildRejectsBadSizes(t *testing.T) {
	for _, s := range []Spec{
		{Family: "gnm", Params: param.Values{"n": 0}},
		{Family: "grid", Params: param.Values{"rows": 0}},
		{Family: "gnp", Params: param.Values{"p": 1.5}},
		{Family: "hypercube", Params: param.Values{"k": -1}},
	} {
		if _, err := Build(s); err == nil {
			t.Errorf("%v: accepted invalid parameters", s)
		}
	}
}

func TestSpecString(t *testing.T) {
	s := Spec{Family: "gnm", Params: param.Values{"n": 32, "m": 64}}
	if got := s.String(); got != "gnm{m=64 n=32}" {
		t.Errorf("String = %q", got)
	}
}
