package algo_test

import (
	"encoding/json"
	"strings"
	"testing"

	"ncc/internal/algo"
	"ncc/internal/graph"
	"ncc/internal/ncc"
	"ncc/internal/param"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.Build(graph.Spec{Family: "kforest", Params: param.Values{"n": 24, "k": 2}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEveryAlgorithmRunsAndVerifies(t *testing.T) {
	g := testGraph(t)
	for _, d := range algo.Algorithms.All() {
		t.Run(d.Name, func(t *testing.T) {
			res, err := d.Execute(ncc.Config{Seed: 3}, g, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Verified {
				t.Fatalf("unverified: %s", res.VerifyErr)
			}
			if res.Summary == "" {
				t.Error("empty summary")
			}
			if res.Stats.Rounds == 0 {
				t.Error("zero rounds recorded")
			}
		})
	}
}

// suite lists the source paper's algorithms: the registry minus baselines.
var suite = []string{"orientation", "bfs", "mis", "matching", "coloring", "mst", "components", "forests"}

func TestRegistryContainsTheSuite(t *testing.T) {
	for _, want := range suite {
		if _, ok := algo.Algorithms.Get(want); !ok {
			t.Errorf("algorithm %q not registered", want)
		}
	}
}

// TestCapacityFloor runs the suite at capfactor 2, a quarter of the default
// capacity. A send over Cap() panics, so a comm step that stops pacing its
// sends fails here even when the default capacity has room for it.
func TestCapacityFloor(t *testing.T) {
	g, err := graph.Build(graph.Spec{Family: "kforest", Params: param.Values{"n": 64, "k": 3}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range suite {
		t.Run(name, func(t *testing.T) {
			res, err := algo.MustGet(name).Execute(ncc.Config{Seed: 1, CapFactor: 2}, g, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Verified {
				t.Fatalf("unverified: %s", res.VerifyErr)
			}
		})
	}
}

func TestRunRejectsUnknownParam(t *testing.T) {
	g := testGraph(t)
	_, err := algo.MustGet("mis").Execute(ncc.Config{Seed: 1}, g, param.Values{"bogus": 1})
	if err == nil || !strings.Contains(err.Error(), "unknown params bogus") {
		t.Errorf("err = %v", err)
	}
}

func TestBFSRejectsOutOfRangeSource(t *testing.T) {
	g := testGraph(t)
	_, err := algo.MustGet("bfs").Execute(ncc.Config{Seed: 1}, g, param.Values{"src": 1000})
	if err == nil || !strings.Contains(err.Error(), "src") {
		t.Errorf("err = %v", err)
	}
}

func TestMSTSummaryAndMetrics(t *testing.T) {
	g := testGraph(t)
	res, err := algo.MustGet("mst").Execute(ncc.Config{Seed: 3}, g, param.Values{"maxw": 500})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatalf("unverified: %s", res.VerifyErr)
	}
	// A connected 24-node graph has a 23-edge spanning tree.
	if res.Metrics["edges"] != 23 {
		t.Errorf("edges metric = %v, want 23", res.Metrics["edges"])
	}
	if !strings.Contains(res.Summary, "minimum spanning forest: 23 edges") {
		t.Errorf("summary = %q", res.Summary)
	}
}

func TestResultSerializesDeterministically(t *testing.T) {
	g := testGraph(t)
	var lines []string
	for i := 0; i < 2; i++ {
		res, err := algo.MustGet("coloring").Execute(ncc.Config{Seed: 7, Workers: 1 + i*7}, g, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(b))
	}
	if lines[0] != lines[1] {
		t.Errorf("same seed serialized differently:\n%s\n%s", lines[0], lines[1])
	}
	var back map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &back); err != nil {
		t.Fatalf("result JSON does not parse: %v", err)
	}
	if back["verified"] != true {
		t.Errorf("verified flag missing from JSON: %s", lines[0])
	}
}
