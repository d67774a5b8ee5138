// Hybrid-network example (Section 1 of the paper): cell phones share a cheap
// local-range network — here a grid of "ad-hoc links" — and additionally
// command a node-capacitated global overlay (the clique). The task is to
// compute a BFS tree of the cheap network (e.g. shortest ad-hoc relay paths
// from a gateway) using the overlay. The registry's broadcast-tree BFS needs
// O((a + D + log n) log n) rounds; naive flooding of the same graph is shown
// for comparison.
package main

import (
	"flag"
	"fmt"
	"log"

	"ncc/internal/algo"
	"ncc/internal/baseline"
	"ncc/internal/comm"
	"ncc/internal/graph"
	"ncc/internal/ncc"
	"ncc/internal/param"
)

func main() {
	side := flag.Int("side", 12, "grid side length (n = side*side)")
	flag.Parse()

	g, err := graph.Build(graph.Spec{
		Family: "grid",
		Params: param.Values{"rows": float64(*side), "cols": float64(*side)},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cheap-link network: %v (%dx%d grid, diameter %d)\n", g, *side, *side, graph.Diameter(g))

	cfg := ncc.Config{N: g.N(), Seed: 3}
	const gateway = 0

	res, err := algo.MustGet("bfs").Execute(cfg, g, param.Values{"src": gateway})
	if err != nil {
		log.Fatal(err)
	}
	if !res.Verified {
		log.Fatalf("BFS verification failed: %s", res.VerifyErr)
	}
	fmt.Printf("overlay BFS: every phone knows its relay parent and distance (max %d hops) — %d rounds\n",
		int(res.Metrics["eccentricity"]), res.Stats.Rounds)

	stNaive, err := ncc.Run(cfg, func(ctx *ncc.Context) {
		baseline.NaiveBFS(comm.NewSession(ctx), g, gateway)
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("naive flooding over the overlay: %d rounds (fine here: grid degree is constant;\n", stNaive.Rounds)
	fmt.Println("  rerun the `capacity` experiment to watch flooding collapse on a star).")
}
