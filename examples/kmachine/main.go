// k-machine example (Appendix A of the paper): a data center processes a
// large sparse graph by partitioning its vertices over k servers. Any NCC
// algorithm can be simulated there; Corollary 2 predicts about n*T/k^2
// machine rounds for a T-round NCC algorithm. We run the NCC minimum
// spanning tree of a registry-built 2-forest graph and sweep k.
package main

import (
	"flag"
	"fmt"
	"log"

	"ncc/internal/comm"
	"ncc/internal/core"
	"ncc/internal/graph"
	"ncc/internal/kmachine"
	"ncc/internal/ncc"
	"ncc/internal/param"
	"ncc/internal/verify"
)

func main() {
	n := flag.Int("n", 96, "number of nodes")
	flag.Parse()

	g, err := graph.Build(graph.Spec{
		Family: "kforest",
		Params: param.Values{"n": float64(*n), "k": 2},
		Seed:   17,
	})
	if err != nil {
		log.Fatal(err)
	}
	wg := graph.RandomWeights(g, 500, 18)
	fmt.Printf("input graph: %v\n", g)

	perNode := make([][][2]int, g.N())
	program := func(ctx *ncc.Context) {
		perNode[ctx.ID()] = core.MST(comm.NewSession(ctx), wg)
	}

	fmt.Println("k-machine simulation of the NCC MST (bandwidth 4 words/link/round):")
	for _, k := range []int{2, 4, 8, 16} {
		if k > g.N() {
			break
		}
		res, _, err := kmachine.Simulate(k, 4, ncc.Config{N: g.N(), Seed: 21}, program)
		if err != nil {
			log.Fatal(err)
		}
		if err := verify.MST(wg, core.CollectMSTEdges(perNode)); err != nil {
			log.Fatal(err)
		}
		pred := float64(g.N())*float64(res.NCCRounds)/float64(k*k) + float64(res.NCCRounds)
		fmt.Printf("  k=%2d: %8d machine rounds (prediction n*T/k^2 + T = %8.0f)  cross-traffic %d msgs\n",
			k, res.KRounds, pred, res.CrossMessages)
	}
	fmt.Println("MST verified against Kruskal at every k; more machines => quadratically less routing per pair.")
}
