package service

import (
	"sync"
	"testing"
	"time"

	"ncc/internal/graph"
	"ncc/internal/ncc"
	"ncc/internal/param"
	"ncc/internal/scenario"
)

// TestSpecNodeCount pins the scheduler's sizing hint across every family
// convention, so worker-token reservations match actual graph sizes and
// never idle budget other jobs could use.
func TestSpecNodeCount(t *testing.T) {
	cases := []struct {
		spec graph.Spec
		want int
	}{
		{graph.Spec{Family: "kforest", Params: param.Values{"n": 48, "k": 2}}, 48},
		{graph.Spec{Family: "kforest"}, 64}, // registry default n
		{graph.Spec{Family: "grid", Params: param.Values{"rows": 6, "cols": 8}}, 48},
		{graph.Spec{Family: "torus"}, 64}, // default 8x8
		{graph.Spec{Family: "bipartite", Params: param.Values{"n1": 10, "n2": 5}}, 15},
		{graph.Spec{Family: "disjoint", Params: param.Values{"parts": 3, "size": 7}}, 21},
		{graph.Spec{Family: "hypercube", Params: param.Values{"k": 5}}, 32},
		{graph.Spec{Family: "no-such-family"}, 0},
		{graph.Spec{Family: "kforest", Params: param.Values{"bogus": 1}}, 0}, // unresolvable params
	}
	for _, tc := range cases {
		if got := specNodeCount(tc.spec); got != tc.want {
			t.Errorf("specNodeCount(%v) = %d, want %d", tc.spec, got, tc.want)
		}
	}
}

// TestWorkersForFollowsEngineDefault pins that a run without an explicit
// worker count reserves only what the engine would use at its size: a 48-node
// job takes one token, so on a 2-token budget a second executor's job runs
// alongside it instead of queueing behind it.
func TestWorkersForFollowsEngineDefault(t *testing.T) {
	b := &LocalBackend{budget: 2}
	sized := func(n, workers int) scenario.Scenario {
		return scenario.Scenario{
			Graph: graph.Spec{Family: "kforest", Params: param.Values{"n": float64(n), "k": 2}},
			Model: scenario.Model{Workers: workers},
		}
	}
	cases := []struct {
		name string
		c    scenario.Scenario
		want int
	}{
		{"small default", sized(48, 0), 1},
		{"large default", sized(1<<20, 0), min(2, ncc.DefaultWorkers(1<<20))},
		{"explicit", sized(48, 2), 2},
		{"explicit above n", sized(1, 2), 1},
		{"unsized default", scenario.Scenario{Graph: graph.Spec{Family: "no-such-family"}}, min(2, ncc.DefaultWorkers(1<<30))},
	}
	for _, tc := range cases {
		if got := b.workersFor(tc.c); got != tc.want {
			t.Errorf("%s: workersFor = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestTokenPoolGivesPartialAllocations(t *testing.T) {
	p := newTokenPool(4)
	if got := p.acquire(8); got != 4 {
		t.Fatalf("acquire(8) on budget 4 = %d, want 4", got)
	}
	done := make(chan int, 1)
	go func() { done <- p.acquire(2) }()
	select {
	case v := <-done:
		t.Fatalf("acquire(2) returned %d with no free tokens", v)
	case <-time.After(20 * time.Millisecond):
	}
	p.release(1)
	select {
	case v := <-done:
		if v != 1 {
			t.Fatalf("acquire(2) with one free token = %d, want 1", v)
		}
	case <-time.After(time.Second):
		t.Fatal("acquire did not wake on release")
	}
	p.release(1)
	p.release(4)
	if free := p.available(); free != 5 {
		t.Fatalf("available = %d after releasing everything, want 5", free)
	}
}

// TestTokenPoolFIFO pins the no-starvation property: a small request that is
// already waiting is served before a later big request, even when the big
// one could swallow the whole budget.
func TestTokenPoolFIFO(t *testing.T) {
	p := newTokenPool(4)
	p.acquire(4) // budget exhausted

	order := make(chan string, 2)
	var started sync.WaitGroup
	started.Add(1)
	go func() {
		started.Done()
		p.acquire(1)
		order <- "small"
	}()
	started.Wait()
	time.Sleep(10 * time.Millisecond) // the small waiter takes its ticket first
	go func() {
		p.acquire(4)
		order <- "big"
	}()
	time.Sleep(10 * time.Millisecond)

	p.release(4)
	first := <-order
	if first != "small" {
		t.Fatalf("first served waiter = %q, want the earlier small request", first)
	}
	<-order // big proceeds with whatever is left
}
