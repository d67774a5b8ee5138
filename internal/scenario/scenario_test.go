package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ncc/internal/faultmodel"
	"ncc/internal/graph"
	"ncc/internal/param"
)

func misScenario() Scenario {
	return Scenario{
		Name:  "test-mis",
		Algo:  "mis",
		Graph: graph.Spec{Family: "kforest", Params: param.Values{"n": 24, "k": 2}, Seed: 5},
		Model: Model{Seed: 5},
	}
}

func TestRunOneProducesVerifiedRecord(t *testing.T) {
	rec, err := RunOne(misScenario())
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Verified {
		t.Fatalf("unverified: %s", rec.VerifyErr)
	}
	if rec.Graph.N != 24 || rec.Graph.M == 0 {
		t.Errorf("graph info not recorded: %+v", rec.Graph)
	}
	if rec.Capacity == 0 || rec.Stats.Rounds == 0 {
		t.Errorf("capacity/stats not recorded: cap=%d rounds=%d", rec.Capacity, rec.Stats.Rounds)
	}
	if !strings.Contains(rec.Summary, "maximal independent set") {
		t.Errorf("summary = %q", rec.Summary)
	}
}

func TestExpandCrossProductIsDeterministic(t *testing.T) {
	s := misScenario()
	s.Sweep = &Sweep{N: []int{16, 32}, CapFactor: []int{4, 8}, Seeds: []int64{1, 2, 3}}
	got := s.Expand()
	if len(got) != 12 {
		t.Fatalf("expanded to %d scenarios, want 12", len(got))
	}
	// Deterministic order: n outermost, then capfactor, then seeds.
	first, last := got[0], got[11]
	if first.Graph.Params["n"] != 16 || first.Model.CapFactor != 4 || first.Model.Seed != 1 {
		t.Errorf("first expansion wrong: %+v", first)
	}
	if last.Graph.Params["n"] != 32 || last.Model.CapFactor != 8 || last.Model.Seed != 3 {
		t.Errorf("last expansion wrong: %+v", last)
	}
	if first.Graph.Seed != 1 || last.Graph.Seed != 3 {
		t.Errorf("sweep seeds must reseed the graph: first=%d last=%d", first.Graph.Seed, last.Graph.Seed)
	}
	for _, c := range got {
		if c.Sweep != nil {
			t.Fatal("expanded scenario still carries a sweep")
		}
	}
	// Expansion must not alias the parent's parameter bags.
	if s.Graph.Params["n"] != 24 {
		t.Errorf("expansion mutated the parent spec: n=%v", s.Graph.Params["n"])
	}
}

func TestExpandWithoutSeedsAxisKeepsDeclaredSeeds(t *testing.T) {
	s := misScenario()
	s.Graph.Seed = 7
	s.Model.Seed = 3
	s.Sweep = &Sweep{N: []int{16, 24}}
	for _, c := range s.Expand() {
		if c.Graph.Seed != 7 || c.Model.Seed != 3 {
			t.Errorf("empty seeds axis must keep declared seeds, got graph=%d model=%d",
				c.Graph.Seed, c.Model.Seed)
		}
	}
}

func TestRunSweepSerializesDeterministically(t *testing.T) {
	s := misScenario()
	s.Sweep = &Sweep{N: []int{12, 16}, Seeds: []int64{1, 2}}
	marshal := func() string {
		var b strings.Builder
		for _, rec := range Run(s) {
			line, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(line)
			b.WriteByte('\n')
		}
		return b.String()
	}
	a, b := marshal(), marshal()
	if a != b {
		t.Errorf("two identical sweeps serialized differently:\n%s\n---\n%s", a, b)
	}
	if n := strings.Count(a, "\n"); n != 4 {
		t.Errorf("sweep produced %d records, want 4", n)
	}
	if strings.Contains(a, `"verified":false`) {
		t.Errorf("sweep contains unverified runs:\n%s", a)
	}
}

func TestValidateRejectsUnknowns(t *testing.T) {
	s := misScenario()
	s.Algo = "nope"
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), `unknown algorithm "nope"`) {
		t.Errorf("err = %v", err)
	}
	s = misScenario()
	s.Graph.Family = "nope"
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), `unknown graph family "nope"`) {
		t.Errorf("err = %v", err)
	}
	s = misScenario()
	s.Params = param.Values{"bogus": 1}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "unknown params") {
		t.Errorf("err = %v", err)
	}
}

func TestLoadRoundTripsAndRejectsUnknownFields(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	spec := `{
		"name": "file-mst",
		"algo": "mst",
		"graph": {"family": "gnm", "params": {"n": 20, "m": 40}, "seed": 3},
		"params": {"maxw": 100},
		"model": {"capfactor": 8, "seed": 3},
		"sweep": {"seeds": [3, 4]}
	}`
	if err := os.WriteFile(good, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Load(good)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	recs := Run(s)
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	for _, rec := range recs {
		if rec.Error != "" || !rec.Verified {
			t.Errorf("record failed: err=%q verifyErr=%q", rec.Error, rec.VerifyErr)
		}
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"algo": "mst", "grpah": {}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Error("unknown field accepted")
	}
}

func TestFaultInjectionIsRecordedNotFatal(t *testing.T) {
	s := Scenario{
		Algo:   "mis",
		Graph:  graph.Spec{Family: "kforest", Params: param.Values{"n": 16, "k": 1}, Seed: 4},
		Model:  Model{Seed: 4, MaxRounds: 3000},
		Faults: &Faults{Models: []faultmodel.Spec{{Model: "iid-drop", Params: param.Values{"p": 0.3}}}},
	}
	recs := Run(s)
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	rec := recs[0]
	// A 30%-lossy network either stalls the collective (MaxRounds, recorded
	// in Error) or terminates with the drops visible in the stats; silent
	// success with zero drops would mean the faults were never injected.
	if rec.Error == "" && rec.Stats.DroppedFault == 0 {
		t.Errorf("fault injection left no trace: %+v", rec)
	}
}

func TestLinkCutFaults(t *testing.T) {
	f := &Faults{Models: []faultmodel.Spec{{Model: "link-cut", Params: param.Values{"fromround": 5}, To: []int{0}}}}
	plan, err := faultmodel.Build(f.specs(), faultmodel.Env{N: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, cut := plan.Loss(4); cut.To != nil || cut.From != nil {
		t.Error("cut links before fromround")
	}
	_, cut := plan.Loss(5)
	if cut.To == nil || !cut.To[0] {
		t.Error("kept the link into the cut node")
	}
	if cut.To[2] || cut.From != nil {
		t.Error("cut an unrelated link")
	}
}

func TestFaultValidationFieldPaths(t *testing.T) {
	cases := []struct {
		name string
		f    Faults
		want string
	}{
		{"dropto bound", Faults{Models: []faultmodel.Spec{{Model: "link-cut", To: []int{24}}}}, "faults.models[0]: to[0] = 24 out of [0,24)"},
		{"dropfrom bound", Faults{Models: []faultmodel.Spec{{Model: "link-cut", From: []int{-1}}}}, "faults.models[0]: from[0] = -1"},
		{"unknown model", Faults{Models: []faultmodel.Spec{{Model: "meteor"}}}, `faults.models[0]: model: unknown fault model "meteor"`},
		{"links on non-link model", Faults{Models: []faultmodel.Spec{{Model: "crash", To: []int{1}}}}, "faults.models[0]: model crash takes no to/from link sets"},
		{"link set bound", Faults{Models: []faultmodel.Spec{{Model: "link-cut", To: []int{30}}}}, "faults.models[0]: to[0] = 30 out of [0,24)"},
		{"bad model param", Faults{Models: []faultmodel.Spec{{Model: "crash", Params: param.Values{"rounds": 3}}}}, "faults.models[0]: params:"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := misScenario()
			s.Faults = &tc.f
			err := s.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}

	s := misScenario()
	s.Sweep = &Sweep{Faults: []Faults{{}, {Models: []faultmodel.Spec{{Model: "meteor"}}}}}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "sweep.faults[1].models[0]") {
		t.Fatalf("Validate() = %v, want sweep.faults[1].models[0] path", err)
	}
}

func TestSweepFaultsAxis(t *testing.T) {
	s := misScenario()
	drop := Faults{Models: []faultmodel.Spec{{Model: "iid-drop", Params: param.Values{"p": 0.1}}}}
	s.Sweep = &Sweep{Seeds: []int64{1, 2}, Faults: []Faults{{}, drop}}
	ex := s.Expand()
	if len(ex) != 4 {
		t.Fatalf("expanded to %d scenarios, want 4", len(ex))
	}
	for i, c := range ex {
		want := Faults{}
		if i%2 == 1 {
			want = drop
		}
		if c.Faults == nil || !reflect.DeepEqual(*c.Faults, want) {
			t.Errorf("expansion %d: faults = %+v, want %+v", i, c.Faults, want)
		}
		if c.Sweep != nil {
			t.Errorf("expansion %d still carries a sweep", i)
		}
	}
	if ex[0].Model.Seed != 1 || ex[2].Model.Seed != 2 {
		t.Errorf("seed axis must stay outside the faults axis: %+v", []int64{ex[0].Model.Seed, ex[2].Model.Seed})
	}
}

func TestCrashScenarioRecordsDegradation(t *testing.T) {
	s := Scenario{
		Algo:  "mis",
		Graph: graph.Spec{Family: "kforest", Params: param.Values{"n": 48, "k": 2}, Seed: 3},
		Model: Model{Seed: 11, MaxRounds: 1 << 17},
		Faults: &Faults{Models: []faultmodel.Spec{
			{Model: "crash", Params: param.Values{"count": 4, "round": 20}},
		}},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	rec, err := RunOne(s)
	if err != nil {
		t.Fatalf("crashed run failed hard: %v", err)
	}
	if rec.Degradation == nil {
		t.Fatal("faulted record has no degradation report")
	}
	if rec.Verified {
		t.Error("degraded record must not claim full verification")
	}
	if !rec.Degradation.SurvivorsOK {
		t.Errorf("survivor verification failed: %s", rec.Degradation.Detail)
	}
	if rec.Degradation.Unfinished < 4 {
		t.Errorf("unfinished = %d, want >= 4", rec.Degradation.Unfinished)
	}
}

// TestFaultedRunsAreWorkerInvariant pins the reproducibility contract for
// every registered fault model: the full Record — stats, degradation report,
// survivor verdict — is byte-identical across engine worker counts and across
// repeated runs of the same seed (fault schedules derive from the run seed,
// never from execution order).
func TestFaultedRunsAreWorkerInvariant(t *testing.T) {
	blocks := []Faults{
		{Models: []faultmodel.Spec{{Model: "iid-drop", Params: param.Values{"p": 0.004}}}},
		{Models: []faultmodel.Spec{{Model: "link-cut", Params: param.Values{"fromround": 40}, To: []int{1}}}},
		{Models: []faultmodel.Spec{{Model: "crash", Params: param.Values{"count": 3, "round": 20}}}},
		{Models: []faultmodel.Spec{{Model: "crash-recover", Params: param.Values{"count": 2, "round": 16, "downfor": 48}}}},
		{Models: []faultmodel.Spec{{Model: "churn", Params: param.Values{"rate": 0.01, "horizon": 400, "meandown": 32}}}},
		{Models: []faultmodel.Spec{{Model: "adversarial", Params: param.Values{"count": 2, "round": 16}}}},
	}
	for i := range blocks {
		f := blocks[i]
		t.Run(f.Models[0].Model, func(t *testing.T) {
			t.Parallel()
			s := Scenario{
				Algo:   "mis",
				Graph:  graph.Spec{Family: "kforest", Params: param.Values{"n": 32, "k": 2}, Seed: 7},
				Model:  Model{Seed: 7, MaxRounds: 1 << 15},
				Faults: &f,
			}
			var runs [][]byte
			for _, workers := range []int{1, 3, 3} {
				rec, err := RunOneWith(s, RunOpts{Workers: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if rec.Degradation == nil {
					t.Fatalf("workers=%d: faulted record has no degradation report", workers)
				}
				line, err := json.Marshal(rec)
				if err != nil {
					t.Fatal(err)
				}
				runs = append(runs, line)
			}
			if !bytes.Equal(runs[0], runs[1]) {
				t.Errorf("record differs across worker counts:\n1 worker:  %s\n3 workers: %s", runs[0], runs[1])
			}
			if !bytes.Equal(runs[1], runs[2]) {
				t.Errorf("record differs across repeated runs of one seed:\n%s\n%s", runs[1], runs[2])
			}
		})
	}
}
