package faultmodel

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"ncc/internal/graph"
	"ncc/internal/ncc"
	"ncc/internal/param"
)

func env(n int, seed int64) Env { return Env{N: n, Seed: seed} }

// TestScheduleDeterminism: every registered model compiles to an identical
// schedule when rebuilt with the same seed, and the seeded models move when
// the seed moves. This is the property cluster re-dispatch and cache replay
// rely on.
func TestScheduleDeterminism(t *testing.T) {
	specFor := func(model string) Spec {
		sp := Spec{Model: model}
		if model == "link-cut" {
			sp.To = []int{0, 3}
		}
		return sp
	}
	e := Env{N: 64, Seed: 42, G: graph.KForest(64, 2, 7)}
	for _, name := range Models.Names() {
		sp := specFor(name)
		a, err := Build([]Spec{sp}, e)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := Build([]Spec{sp}, e)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed compiled different schedules", name)
		}
	}
	// Seeded victim selection must depend on the seed.
	for _, name := range []string{"crash", "crash-recover", "churn"} {
		sp := Spec{Model: name, Params: param.Values{"count": 4}}
		if name == "churn" {
			sp.Params = param.Values{"rate": 0.1}
		}
		a, _ := Build([]Spec{sp}, Env{N: 256, Seed: 1, G: e.G})
		b, _ := Build([]Spec{sp}, Env{N: 256, Seed: 2, G: e.G})
		if reflect.DeepEqual(a.Events(), b.Events()) {
			t.Errorf("%s: seeds 1 and 2 compiled the same schedule", name)
		}
	}
}

// TestIIDDropAndLinkCut checks the plan's link loss: drop probabilities
// compose as independent losses, and each link cut joins the round's cut
// from its fromround on.
func TestIIDDropAndLinkCut(t *testing.T) {
	s, err := Build([]Spec{
		{Model: "iid-drop", Params: param.Values{"p": 0.25}},
		{Model: "link-cut", Params: param.Values{"fromround": 10}, To: []int{3}, From: []int{5}},
		{Model: "iid-drop", Params: param.Values{"p": 0.2}},
		{Model: "link-cut", Params: param.Values{"fromround": 4}, To: []int{7}},
	}, env(16, 1))
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := 0.25, 0.2
	wantP := 1 - (1-p1)*(1-p2)
	cutOff := func(c ncc.LinkCut, from, to int) bool {
		return c.To != nil && c.To[to] || c.From != nil && c.From[from]
	}
	for _, c := range []struct {
		round, from, to int
		cut             bool
	}{
		{3, 0, 7, false}, // before both fromrounds
		{4, 0, 7, true},  // into the second cut's to-set
		{9, 0, 3, false}, // before the first cut's fromround
		{10, 0, 3, true}, // into the to-set
		{10, 5, 0, true}, // out of the from-set
		{10, 0, 7, true}, // the earlier cut still holds
		{10, 0, 1, false},
	} {
		p, cut := s.Loss(c.round)
		if p != wantP {
			t.Errorf("round %d: drop probability %v, want %v", c.round, p, wantP)
		}
		if got := cutOff(cut, c.from, c.to); got != c.cut {
			t.Errorf("round %d: link %d->%d cut = %v, want %v", c.round, c.from, c.to, got, c.cut)
		}
	}
	if len(s.Events()) != 0 {
		t.Errorf("drop models scheduled %d liveness events", len(s.Events()))
	}
}

func TestCrashRecoverSchedule(t *testing.T) {
	s, err := Build([]Spec{{
		Model:  "crash-recover",
		Params: param.Values{"count": 3, "round": 12, "downfor": 20},
	}}, env(32, 9))
	if err != nil {
		t.Fatal(err)
	}
	ev := s.Events()
	if len(ev) != 2 || ev[0].Round != 12 || ev[1].Round != 32 {
		t.Fatalf("events = %+v, want outage@12 and revival@32", ev)
	}
	if len(ev[0].Down) != 3 || len(ev[1].Up) != 3 {
		t.Fatalf("events = %+v, want 3 outages and 3 revivals", ev)
	}
	for i, o := range ev[0].Down {
		if o.Kill {
			t.Errorf("crash-recover outage %d is a kill", i)
		}
		if o.Node != ev[1].Up[i].Node {
			t.Errorf("outage %d node %d does not match revival node %d", i, o.Node, ev[1].Up[i].Node)
		}
		if !ev[1].Up[i].Reset {
			t.Errorf("revival %d did not request a reset (default reset=1)", i)
		}
	}
	down, up := s.Transitions(12)
	if len(down) != 3 || len(up) != 0 {
		t.Errorf("Transitions(12) = %v, %v", down, up)
	}
	if down, up = s.Transitions(13); down != nil || up != nil {
		t.Errorf("Transitions(13) = %v, %v, want none", down, up)
	}
}

// TestScheduleNextEvent checks NextEvent on the crash-recover schedule's
// events at rounds 12 and 32: before the first, on one, between the two and
// after the last, where none is left.
func TestScheduleNextEvent(t *testing.T) {
	s, err := Build([]Spec{{
		Model:  "crash-recover",
		Params: param.Values{"count": 3, "round": 12, "downfor": 20},
	}}, env(32, 9))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ round, want int }{
		{0, 12},
		{12, 12},
		{13, 32},
		{33, math.MaxInt},
	} {
		if got := s.NextEvent(c.round); got != c.want {
			t.Errorf("NextEvent(%d) = %d, want %d", c.round, got, c.want)
		}
	}
	if got := (&Schedule{}).NextEvent(0); got != math.MaxInt {
		t.Errorf("the empty schedule's NextEvent(0) = %d, want math.MaxInt", got)
	}
}

func TestChurnConsistency(t *testing.T) {
	s, err := Build([]Spec{{
		Model:  "churn",
		Params: param.Values{"rate": 0.5, "horizon": 400, "meandown": 16},
	}}, env(64, 77))
	if err != nil {
		t.Fatal(err)
	}
	ev := s.Events()
	if len(ev) == 0 {
		t.Fatal("rate 0.5 over 400 rounds churned nobody")
	}
	// Replay: a node must never be downed while already down, every outage
	// must have a later revival, and rounds must be sorted and coalesced.
	down := map[int]bool{}
	pending := 0
	last := -1
	for _, e := range ev {
		if e.Round <= last {
			t.Fatalf("events not strictly sorted/coalesced at round %d", e.Round)
		}
		last = e.Round
		for _, r := range e.Up {
			if !down[r.Node] {
				t.Fatalf("round %d revives node %d which is not down", e.Round, r.Node)
			}
			down[r.Node] = false
			pending--
		}
		for _, o := range e.Down {
			if o.Kill {
				t.Fatalf("churn killed node %d; churn only suspends", o.Node)
			}
			if down[o.Node] {
				t.Fatalf("round %d downs node %d twice", e.Round, o.Node)
			}
			down[o.Node] = true
			pending++
		}
	}
	if pending < 0 {
		t.Fatalf("more revivals than outages")
	}
}

func TestAdversarialPicksCutVertices(t *testing.T) {
	// Star: the hub is the articulation point and the max-degree node.
	s, err := Build([]Spec{{Model: "adversarial", Params: param.Values{"count": 1, "round": 4}}},
		Env{N: 8, Seed: 5, G: graph.Star(8)})
	if err != nil {
		t.Fatal(err)
	}
	ev := s.Events()
	if len(ev) != 1 || len(ev[0].Down) != 1 || ev[0].Down[0].Node != 0 || !ev[0].Down[0].Kill {
		t.Fatalf("events = %+v, want kill of hub 0 at round 4", ev)
	}
	// Without a graph the model must refuse.
	if _, err := Build([]Spec{{Model: "adversarial"}}, env(8, 5)); err == nil {
		t.Error("adversarial compiled without a graph")
	}
}

func TestBuildValidation(t *testing.T) {
	cases := []struct {
		spec Spec
		want string
	}{
		{Spec{Model: "nope"}, "unknown fault model"},
		{Spec{Model: "iid-drop", Params: param.Values{"p": 1.5}}, "out of [0,1]"},
		{Spec{Model: "iid-drop", Params: param.Values{"q": 1}}, "unknown params"},
		{Spec{Model: "iid-drop", To: []int{1}}, "takes no to/from"},
		{Spec{Model: "link-cut", To: []int{16}}, "out of [0,16)"},
		{Spec{Model: "link-cut", From: []int{-1}}, "out of [0,16)"},
		{Spec{Model: "link-cut"}, "non-empty"},
		{Spec{Model: "link-cut", To: []int{0}, Params: param.Values{"fromround": -1}}, "need >= 0"},
		{Spec{Model: "crash-recover", Params: param.Values{"downfor": 0}}, "must be >= 1"},
	}
	for _, c := range cases {
		_, err := Build([]Spec{c.spec}, env(16, 1))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Build(%+v) error = %v, want substring %q", c.spec, err, c.want)
		}
	}
	// Empty spec list: no plan at all.
	if s, err := Build(nil, env(16, 1)); err != nil || s != nil {
		t.Errorf("Build(nil) = %v, %v, want nil, nil", s, err)
	}
}
