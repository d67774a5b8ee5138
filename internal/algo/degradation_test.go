package algo

import (
	"testing"

	"ncc/internal/comm"
	"ncc/internal/core"
	"ncc/internal/faultmodel"
	"ncc/internal/graph"
	"ncc/internal/ncc"
	"ncc/internal/param"
	"ncc/internal/verify"
)

// misAlgo mirrors the registered "mis" entry as a typed value (the registry
// only exposes the type-erased Descriptor; scenario-level tests cover that
// path).
var misAlgo = Algorithm[bool]{
	Name: "mis-test",
	Node: func(s *comm.Session, in *Input) bool {
		o := core.Orient(s, in.G, core.OrientParams{})
		trees, lhat := core.BroadcastTrees(s, in.G, o)
		return core.MIS(s, in.G, trees, lhat)
	},
	Verify: func(in *Input, outs []bool) error { return verify.MIS(in.G, outs) },
	VerifySurvivors: func(in *Input, outs []bool, alive []bool) error {
		return verify.SurvivorMIS(in.G, outs, alive)
	},
}

// buildPlan compiles a fault spec list against g, failing the test on error.
func buildPlan(t *testing.T, g *graph.Graph, seed int64, specs ...faultmodel.Spec) *faultmodel.Schedule {
	t.Helper()
	s, err := faultmodel.Build(specs, faultmodel.Env{G: g, N: g.N(), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDegradedRunProducesReport: killing nodes mid-run must not fail the run;
// it must yield a Result with a DegradationReport, a skipped full verifier,
// and a survivor verdict.
func TestDegradedRunProducesReport(t *testing.T) {
	g := graph.KForest(48, 2, 3)
	plan := buildPlan(t, g, 11, faultmodel.Spec{
		Model:  "crash",
		Params: param.Values{"count": 4, "round": 20},
	})
	cfg := ncc.Config{Seed: 11, MaxRounds: 1 << 17, FaultPlan: plan}
	res, _, err := Run(misAlgo, cfg, g, nil)
	if err != nil {
		t.Fatalf("degraded run failed hard: %v", err)
	}
	rep := res.Degradation
	if rep == nil {
		t.Fatal("faulted run has no degradation report")
	}
	if rep.Unfinished < 4 {
		t.Errorf("unfinished = %d, want >= 4 (the killed nodes)", rep.Unfinished)
	}
	if res.Verified {
		t.Error("degraded run must not claim full verification")
	}
	if rep.ReachableFrac <= 0 || rep.ReachableFrac > 1 {
		t.Errorf("reachableFrac = %v out of (0,1]", rep.ReachableFrac)
	}
	if !rep.SurvivorsOK {
		t.Errorf("survivor verification failed: %s", rep.Detail)
	}
}

// TestFaultFreeRunsUnchanged: without fault injection the Result carries no
// degradation report and verifies as before.
func TestFaultFreeRunsUnchanged(t *testing.T) {
	g := graph.KForest(32, 2, 5)
	res, _, err := Run(misAlgo, ncc.Config{Seed: 5}, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degradation != nil {
		t.Error("reliable run carries a degradation report")
	}
	if !res.Verified {
		t.Errorf("reliable run failed verification: %s", res.VerifyErr)
	}
}

// TestIIDDropAttachesReport: pure message loss with an attached (event-free)
// fault plan still yields a degradation report; when every node finishes, the
// full verifier's verdict is echoed into SurvivorsOK-adjacent fields.
func TestIIDDropAttachesReport(t *testing.T) {
	g := graph.KForest(32, 2, 5)
	plan := buildPlan(t, g, 5, faultmodel.Spec{
		Model:  "iid-drop",
		Params: param.Values{"p": 0.005},
	})
	cfg := ncc.Config{Seed: 5, MaxRounds: 1 << 17, FaultPlan: plan}
	res, _, err := Run(misAlgo, cfg, g, nil)
	if err != nil {
		t.Fatalf("lossy run failed hard: %v", err)
	}
	if res.Degradation == nil {
		t.Fatal("faulted run has no degradation report")
	}
}
