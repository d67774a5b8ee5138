// Social-network example: the paper motivates the NCC model with overlay and
// peer-to-peer systems whose interaction graphs have small arboricity but
// heavy-tailed degrees. On a preferential-attachment graph we compute a
// maximal independent set (e.g. a set of mutually non-adjacent coordinators)
// and an O(a)-coloring (e.g. interference-free slot assignment), both in
// O((a + log n) polylog n) rounds despite hub nodes of huge degree. Both
// algorithms are resolved through the registry, which pairs each run with
// its verifier and summarizer.
package main

import (
	"flag"
	"fmt"
	"log"

	"ncc/internal/algo"
	"ncc/internal/graph"
	"ncc/internal/ncc"
	"ncc/internal/param"
)

func main() {
	n := flag.Int("n", 200, "number of nodes")
	flag.Parse()

	g, err := graph.Build(graph.Spec{
		Family: "pa",
		Params: param.Values{"n": float64(*n), "k": 3},
		Seed:   99,
	})
	if err != nil {
		log.Fatal(err)
	}
	deg, _ := graph.Degeneracy(g)
	fmt.Printf("network: %v, max degree %d (hubs!), degeneracy %d (sparse)\n",
		g, g.MaxDegree(), deg)

	cfg := ncc.Config{Seed: 7}

	// Coordinators: a maximal independent set.
	mis, err := algo.MustGet("mis").Execute(cfg, g, nil)
	if err != nil {
		log.Fatal(err)
	}
	if !mis.Verified {
		log.Fatalf("MIS verification failed: %s", mis.VerifyErr)
	}
	fmt.Printf("MIS: %d coordinators, no two adjacent, every node covered (%d rounds)\n",
		int(mis.Metrics["size"]), mis.Stats.Rounds)

	// Slot assignment: an O(a)-coloring.
	col, err := algo.MustGet("coloring").Execute(cfg, g, nil)
	if err != nil {
		log.Fatal(err)
	}
	if !col.Verified {
		log.Fatalf("coloring verification failed: %s", col.VerifyErr)
	}
	fmt.Printf("coloring: %d slots used (palette bound %d = O(arboricity), independent of max degree %d) in %d rounds\n",
		int(col.Metrics["colorsUsed"]), int(col.Metrics["palette"]), g.MaxDegree(), col.Stats.Rounds)
}
