package graph

import (
	"strings"
	"testing"

	"ncc/internal/param"
)

func TestCapacityRegistryHasCorePolicies(t *testing.T) {
	for _, name := range []string{"uniform", "degree", "file", "explicit"} {
		if _, ok := CapacityPolicies.Get(name); !ok {
			t.Errorf("policy %q not registered", name)
		}
	}
	names := CapacityPolicies.Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
}

func TestUniformPolicyIsNil(t *testing.T) {
	g := Star(16)
	caps, err := BuildCapacities(CapacitySpec{Policy: "uniform"}, g, 32)
	if err != nil || caps != nil {
		t.Fatalf("caps=%v err=%v, want nil, nil", caps, err)
	}
}

func TestDegreePolicyScalesAndFloors(t *testing.T) {
	g := Star(64) // center degree 63, leaves degree 1, avg just under 2
	base := 48
	caps, err := BuildCapacities(CapacitySpec{Policy: "degree"}, g, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(caps) != 64 {
		t.Fatalf("len = %d", len(caps))
	}
	if caps[0] <= base {
		t.Errorf("center cap %d should exceed base %d", caps[0], base)
	}
	// Leaf share = round(base * 1 / avgdeg) = round(48/1.969) = 24.
	for u := 1; u < 64; u++ {
		if caps[u] != 24 {
			t.Errorf("leaf %d cap = %d, want 24", u, caps[u])
		}
	}
	// A min above the proportional share lifts the leaves to it.
	caps, err = BuildCapacities(CapacitySpec{Policy: "degree", Params: param.Values{"min": 30}}, g, base)
	if err != nil {
		t.Fatal(err)
	}
	if caps[1] != 30 {
		t.Errorf("leaf cap with min=30 = %d", caps[1])
	}
}

func TestFilePolicyNeedsWeights(t *testing.T) {
	g := Cycle(8)
	if _, err := BuildCapacities(CapacitySpec{Policy: "file"}, g, 24); err == nil {
		t.Fatal("unweighted graph accepted")
	}
	w := make([]uint32, 8)
	for i := range w {
		w[i] = uint32(1 + i)
	}
	if err := g.SetCapacityWeights(w); err != nil {
		t.Fatal(err)
	}
	caps, err := BuildCapacities(CapacitySpec{Policy: "file"}, g, 24)
	if err != nil {
		t.Fatal(err)
	}
	if len(caps) != 8 || caps[7] <= caps[0] {
		t.Fatalf("caps = %v, want increasing with weight", caps)
	}
}

func TestExplicitPolicy(t *testing.T) {
	g := Path(4)
	caps, err := BuildCapacities(CapacitySpec{Policy: "explicit", Values: []float64{5, 6, 7, 8}}, g, 10)
	if err != nil {
		t.Fatal(err)
	}
	if caps[0] != 5 || caps[3] != 8 {
		t.Fatalf("caps = %v", caps)
	}
	for _, bad := range [][]float64{
		{5, 6, 7},          // wrong length
		{5, 6, 7, 0},       // below 1
		{5, 6, 7, 8.5},     // non-integral
		nil,                // missing entirely
		{5, 6, 7, 8, 9, 1}, // too long
	} {
		if _, err := BuildCapacities(CapacitySpec{Policy: "explicit", Values: bad}, g, 10); err == nil {
			t.Errorf("values %v accepted", bad)
		}
	}
}

func TestValidateCapacitySpec(t *testing.T) {
	cases := []struct {
		spec CapacitySpec
		n    int
		want string // "" = valid
	}{
		{CapacitySpec{Policy: "uniform"}, 0, ""},
		{CapacitySpec{Policy: "degree", Params: param.Values{"min": 4}}, 0, ""},
		{CapacitySpec{Policy: "nope"}, 0, "unknown"},
		{CapacitySpec{Policy: "degree", Params: param.Values{"zap": 1}}, 0, "unknown params"},
		{CapacitySpec{Policy: "uniform", Values: []float64{1}}, 0, "no explicit values"},
		{CapacitySpec{Policy: "explicit"}, 0, "requires"},
		{CapacitySpec{Policy: "explicit", Values: []float64{3, 3}}, 3, "entries"},
		{CapacitySpec{Policy: "explicit", Values: []float64{3, 0.5}}, 2, "integer"},
		{CapacitySpec{Policy: "explicit", Values: []float64{3, 3}}, 2, ""},
	}
	for _, c := range cases {
		err := ValidateCapacitySpec(c.spec, c.n)
		if c.want == "" {
			if err != nil {
				t.Errorf("%+v: unexpected error %v", c.spec, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: err = %v, want substring %q", c.spec, err, c.want)
		}
	}
}
