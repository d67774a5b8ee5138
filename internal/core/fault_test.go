package core

import (
	"testing"

	"ncc/internal/comm"
	"ncc/internal/faultmodel"
	"ncc/internal/graph"
	"ncc/internal/ncc"
	"ncc/internal/param"
	"ncc/internal/verify"
)

// The paper's algorithms assume the network is reliable below the capacity
// bound. These failure-injection tests check that the *harness* surfaces
// faults instead of silently producing garbage: under fault injection the
// collectives run with a bounded patience budget, so a lossy network either
// completes degraded (and the verifiers reject the output), aborts with an
// explicit error, or — when a protocol invariant breaks outright — panics the
// node, which the attached FaultPlan's failure isolation retires as a crashed
// node. Never silent corruption.

// faultPlan compiles fault-model specs into a FaultPlan for an n-node run.
func faultPlan(t *testing.T, n int, specs ...faultmodel.Spec) ncc.FaultPlan {
	t.Helper()
	plan, err := faultmodel.Build(specs, faultmodel.Env{N: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestHeavyMessageLossIsDetected(t *testing.T) {
	g := graph.KForest(24, 2, 5)
	cfg := ncc.Config{N: g.N(), Seed: 4, MaxRounds: 3000,
		FaultPlan: faultPlan(t, g.N(), faultmodel.Spec{Model: "iid-drop", Params: param.Values{"p": 0.3}})}
	in, _, err := RunMIS(cfg, g)
	if err != nil {
		// Detected: a stall (MaxRounds), an explicit protocol failure, or a
		// node panic surfaced as a run error.
		t.Logf("lossy run detected: %v", err)
		return
	}
	// The run terminated degraded: its output must then fail verification
	// or, very unlikely, be valid by chance. Either way the fault is visible
	// in the stats/verifier, never silent corruption of the harness itself.
	if vErr := verify.MIS(g, in); vErr == nil {
		t.Skip("lossy run accidentally produced a valid MIS (seed-dependent)")
	}
}

func TestTargetedLinkFailureDoesNotDeadlock(t *testing.T) {
	// Killing every message into node 0 breaks the reduction tree's root, so
	// Synchronize can never actually synchronize — but with a fault plan
	// attached the session runs with a patience budget, so every node must
	// give up and return well before MaxRounds instead of deadlocking.
	cfg := ncc.Config{
		N: 16, Seed: 1, MaxRounds: 5000,
		FaultPlan: faultPlan(t, 16, faultmodel.Spec{Model: "link-cut", To: []int{0}}),
	}
	st, err := ncc.Run(cfg, func(ctx *ncc.Context) {
		s := comm.NewSession(ctx)
		s.Synchronize()
	})
	if err != nil {
		t.Fatalf("patience-bounded Synchronize must give up cleanly, got %v", err)
	}
	if st.Rounds >= cfg.MaxRounds {
		t.Fatalf("took %d rounds, expected early give-up", st.Rounds)
	}
}

func TestLateFaultAfterCleanPrefixStillDetected(t *testing.T) {
	// The network is reliable for 100 rounds, then loses everything: the MST
	// cannot complete, and the fault must surface as an error or as output
	// the verifier rejects — never as a silently valid spanning forest.
	g := graph.Grid(4, 4)
	wg := graph.RandomWeights(g, 50, 1)
	all := make([]int, g.N())
	for v := range all {
		all[v] = v
	}
	cfg := ncc.Config{
		N: g.N(), Seed: 2, MaxRounds: 20000,
		FaultPlan: faultPlan(t, g.N(), faultmodel.Spec{
			Model: "link-cut", Params: param.Values{"fromround": 100}, To: all,
		}),
	}
	outs, _, err := RunMST(cfg, wg)
	if err != nil {
		t.Logf("late fault detected: %v", err)
		return
	}
	if vErr := verify.MST(wg, outs[0]); vErr == nil {
		t.Fatal("run with total message loss returned a verifiably correct MST")
	}
}

func TestCapacityStarvationDegradesGracefully(t *testing.T) {
	// With CapFactor 1 the protocols' constants exceed the capacity on some
	// rounds, so the network drops overflow; the runs must either still
	// verify (drops hit redundant traffic) or be rejected — and the drops
	// must be visible in the stats.
	g := graph.KForest(32, 2, 9)
	cfg := ncc.Config{N: g.N(), Seed: 7, CapFactor: 1, MaxRounds: 50000}
	in, st, err := RunMIS(cfg, g)
	if err != nil {
		// Detected: either a stall (MaxRounds) or an explicit protocol
		// failure (e.g. the orientation rescue reporting unresolvable
		// neighbors). Both surface as errors, never as silent corruption.
		t.Logf("lossy run detected: %v", err)
		return
	}
	if st.Dropped() > 0 {
		t.Logf("capacity starvation dropped %d messages (visible in stats)", st.Dropped())
	}
	if vErr := verify.MIS(g, in); vErr != nil {
		t.Logf("output correctly rejected by verifier: %v", vErr)
	}
}
