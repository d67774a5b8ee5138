// Quickstart: describe a run declaratively — a graph spec, an algorithm from
// the registry, the clique model — and execute it with one call. The scenario
// below computes a verified minimum spanning tree of a random connected graph
// in polylogarithmically many rounds (Theorem 3.2 of the paper); the same
// struct round-trips through JSON (see scenarios/ and `nccrun -scenario`).
package main

import (
	"flag"
	"fmt"
	"log"

	"ncc/internal/graph"
	"ncc/internal/param"
	"ncc/internal/scenario"
)

func main() {
	n := flag.Int("n", 64, "number of nodes")
	flag.Parse()

	s := scenario.Scenario{
		Name: "quickstart-mst",
		Algo: "mst",
		// A random connected graph: 2 superimposed spanning trees. In the NCC
		// model each node initially knows only its own adjacency; the
		// algorithms enforce that discipline.
		Graph:  graph.Spec{Family: "kforest", Params: param.Values{"n": float64(*n), "k": 2}, Seed: 7},
		Params: param.Values{"maxw": 1000},
		Model:  scenario.Model{Seed: 42},
	}
	rec, err := scenario.RunOne(s)
	if err != nil {
		log.Fatal(err)
	}
	if !rec.Verified {
		log.Fatalf("verification failed: %s", rec.VerifyErr)
	}

	fmt.Printf("input: %s, max degree %d\n", rec.Graph.Desc, rec.Graph.MaxDegree)
	fmt.Printf("model: capacity %d messages/node/round\n", rec.Capacity)
	// Each MST edge is known to at least one endpoint (the paper's output
	// contract); the registry's built-in verifier checked it against Kruskal.
	fmt.Printf("MST: %s — verified optimal\n", rec.Summary)
	fmt.Printf("cost: %d rounds, %d messages, max offered receive load %d (cap %d), %d drops\n",
		rec.Stats.Rounds, rec.Stats.Messages, rec.Stats.MaxRecvOffered, rec.Capacity, rec.Stats.Dropped())
}
