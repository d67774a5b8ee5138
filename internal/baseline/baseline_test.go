package baseline

import (
	"sync"
	"testing"

	"ncc/internal/comm"
	"ncc/internal/graph"
	"ncc/internal/ncc"
	"ncc/internal/verify"
)

func TestDirectBroadcastDeliversEverywhere(t *testing.T) {
	const n = 60
	got := make([]uint64, n)
	cfg := ncc.Config{N: n, Seed: 1}
	st, err := ncc.Run(cfg, func(ctx *ncc.Context) {
		got[ctx.ID()] = DirectBroadcast(ctx, 3, 777)
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, v := range got {
		if v != 777 {
			t.Fatalf("node %d got %d", id, v)
		}
	}
	// Theta(n/cap) rounds.
	want := (n - 1 + cfg.Cap() - 1) / cfg.Cap()
	if st.Rounds != want {
		t.Errorf("rounds = %d, want %d", st.Rounds, want)
	}
}

func TestButterflyBroadcastBeatsDirectOnRounds(t *testing.T) {
	// The O(log n) vs Theta(n/cap) separation appears once n/cap clears the
	// butterfly's constant factors (session setup included).
	const n = 2048
	cfg := ncc.Config{N: n, CapFactor: 1, Seed: 1}
	stDirect, err := ncc.Run(cfg, func(ctx *ncc.Context) {
		DirectBroadcast(ctx, 0, 9)
	})
	if err != nil {
		t.Fatal(err)
	}
	stBF, err := ncc.Run(cfg, func(ctx *ncc.Context) {
		s := comm.NewSession(ctx)
		if got := ButterflyBroadcast(s, 0, 9); got != 9 {
			panic("broadcast value lost")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Session setup is itself O(log n), so the total stays far below n/cap.
	if stBF.Rounds >= stDirect.Rounds {
		t.Errorf("butterfly broadcast (%d rounds) not faster than direct (%d rounds)",
			stBF.Rounds, stDirect.Rounds)
	}
}

func TestGossipChecksum(t *testing.T) {
	const n = 40
	got := make([]uint64, n)
	cfg := ncc.Config{N: n, Seed: 2}
	st, err := ncc.Run(cfg, func(ctx *ncc.Context) {
		got[ctx.ID()] = Gossip(ctx, uint64(ctx.ID()+1))
	})
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(n * (n + 1) / 2)
	for id, v := range got {
		if v != want {
			t.Fatalf("node %d gossip checksum %d, want %d", id, v, want)
		}
	}
	if st.Dropped() != 0 {
		t.Errorf("gossip dropped %d messages", st.Dropped())
	}
	// Theta(n/cap) rounds: the Section 1 bound.
	want2 := (n - 1 + cfg.Cap() - 1) / cfg.Cap()
	if st.Rounds != want2 {
		t.Errorf("rounds = %d, want %d", st.Rounds, want2)
	}
}

func TestNaiveBFSCorrect(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"grid": graph.Grid(5, 6), "star": graph.Star(20), "tree": graph.BinaryTree(25),
	} {
		var mu sync.Mutex
		dist := make([]int, g.N())
		parent := make([]int, g.N())
		cfg := ncc.Config{N: g.N(), Seed: 5}
		_, err := ncc.Run(cfg, func(ctx *ncc.Context) {
			s := comm.NewSession(ctx)
			d, p := NaiveBFS(s, g, 0)
			mu.Lock()
			dist[ctx.ID()], parent[ctx.ID()] = d, p
			mu.Unlock()
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := verify.BFS(g, 0, dist, parent, true); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestNaiveTreeSetupStarCost(t *testing.T) {
	// The paper's Section 5 motivation: on a star, naive setup pays for the
	// center's degree, while the orientation-based setup stays logarithmic.
	// Here we only check the naive path works and yields usable trees.
	g := graph.Star(32)
	counts := make([]int, g.N())
	var mu sync.Mutex
	cfg := ncc.Config{N: g.N(), Seed: 3}
	_, err := ncc.Run(cfg, func(ctx *ncc.Context) {
		s := comm.NewSession(ctx)
		trees := NaiveTreeSetup(s, g)
		got := comm.Multicast(s, trees, true, uint64(ctx.ID()), uint64(ctx.ID()), comm.U64Wire{}, g.MaxDegree())
		mu.Lock()
		counts[ctx.ID()] = len(got)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != g.Degree(0) {
		t.Errorf("center received %d multicasts, want %d", counts[0], g.Degree(0))
	}
	for v := 1; v < g.N(); v++ {
		if counts[v] != 1 {
			t.Errorf("leaf %d received %d multicasts, want 1", v, counts[v])
		}
	}
}

func TestCentralizedMSTMatchesKruskal(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Grid(4, 5), graph.KForest(30, 2, 7), graph.GNP(24, 0.3, 1), graph.Disjoint(3, 5),
	} {
		wg := graph.RandomWeights(g, 500, 11)
		results := make([][][2]int, g.N())
		var mu sync.Mutex
		cfg := ncc.Config{N: g.N(), Seed: 9}
		_, err := ncc.Run(cfg, func(ctx *ncc.Context) {
			s := comm.NewSession(ctx)
			f := CentralizedMST(s, wg)
			mu.Lock()
			results[ctx.ID()] = f
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		// Every node holds the same full forest, and it is the MST.
		for u := 1; u < g.N(); u++ {
			if len(results[u]) != len(results[0]) {
				t.Fatalf("node %d has %d edges, node 0 has %d", u, len(results[u]), len(results[0]))
			}
		}
		if err := verify.MST(wg, results[0]); err != nil {
			t.Fatalf("%v: %v", g, err)
		}
	}
}
