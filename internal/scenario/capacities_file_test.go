package scenario

import (
	"reflect"
	"strings"
	"testing"

	"ncc/internal/graph"
	"ncc/internal/graphio"
	"ncc/internal/param"
)

func TestValidateFieldPaths(t *testing.T) {
	fakeHash := strings.Repeat("ab", 32)
	cases := []struct {
		name string
		s    Scenario
		want string // substring of the error; "" means valid
	}{
		{
			name: "file family without a reference",
			s:    Scenario{Algo: "mis", Graph: graph.Spec{Family: "file"}},
			want: "graph.file: required",
		},
		{
			name: "file family with a malformed reference",
			s:    Scenario{Algo: "mis", Graph: graph.Spec{Family: "file", File: "nope"}},
			want: "graph.file: \"nope\" is not a 64-hex content hash",
		},
		{
			name: "file family with a well-formed reference",
			s:    Scenario{Algo: "mis", Graph: graph.Spec{Family: "file", File: fakeHash}},
		},
		{
			name: "file reference on a generator family",
			s:    Scenario{Algo: "mis", Graph: graph.Spec{Family: "kforest", File: fakeHash}},
			want: "graph.file: only valid for the file family",
		},
		{
			name: "unknown capacity policy",
			s: Scenario{Algo: "mis", Graph: graph.Spec{Family: "kforest"},
				Capacities: &graph.CapacitySpec{Policy: "bogus"}},
			want: `capacities.policy: unknown capacity policy "bogus"`,
		},
		{
			name: "unknown capacity policy param",
			s: Scenario{Algo: "mis", Graph: graph.Spec{Family: "kforest"},
				Capacities: &graph.CapacitySpec{Policy: "degree", Params: param.Values{"wat": 1}}},
			want: "capacities.params",
		},
		{
			name: "explicit values length vs static n",
			s: Scenario{Algo: "mis", Graph: graph.Spec{Family: "kforest", Params: param.Values{"n": 8}},
				Capacities: &graph.CapacitySpec{Policy: "explicit", Values: []float64{4, 4, 4}}},
			want: "capacities.values: 3 entries for 8 nodes",
		},
		{
			name: "explicit values pass when n is not statically known",
			s: Scenario{Algo: "mis", Graph: graph.Spec{Family: "file", File: fakeHash},
				Capacities: &graph.CapacitySpec{Policy: "explicit", Values: []float64{4, 4, 4}}},
		},
		{
			name: "more machines than the k-machine accountant's load table",
			s: Scenario{Algo: "mis", Graph: graph.Spec{Family: "kforest"},
				KMachine: &KMachine{K: 1025}},
			want: "kmachine.k = 1025, need 1 <= k <= 1024",
		},
		{
			name: "valid degree capacities",
			s: Scenario{Algo: "mis", Graph: graph.Spec{Family: "kforest", Params: param.Values{"n": 8}},
				Capacities: &graph.CapacitySpec{Policy: "degree", Params: param.Values{"min": 2}}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.s.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestHashCapacitiesAndFile(t *testing.T) {
	base := `{"algo":"mis","graph":{"family":"kforest","params":{"n":32,"k":2},"seed":1},"model":{"seed":1}}`
	want := mustHash(t, base)

	// Spelling the uniform policy out loud is the same computation.
	uniform := `{"algo":"mis","graph":{"family":"kforest","params":{"n":32,"k":2},"seed":1},"model":{"seed":1},"capacities":{"policy":"uniform"}}`
	if got := mustHash(t, uniform); got != want {
		t.Errorf("explicit uniform capacities changed the hash: %s != %s", got, want)
	}

	// A real heterogeneous block is a different computation.
	degree := `{"algo":"mis","graph":{"family":"kforest","params":{"n":32,"k":2},"seed":1},"model":{"seed":1},"capacities":{"policy":"degree"}}`
	dh := mustHash(t, degree)
	if dh == want {
		t.Error("degree capacities did not change the hash")
	}
	// ... but spelling its default parameter is not.
	degreeMin := `{"algo":"mis","graph":{"family":"kforest","params":{"n":32,"k":2},"seed":1},"model":{"seed":1},"capacities":{"policy":"degree","params":{"min":0}}}`
	if got := mustHash(t, degreeMin); got != dh {
		t.Errorf("explicit default min changed the degree hash: %s != %s", got, dh)
	}

	// The graph content address is part of the canonical hash: two file
	// scenarios that differ only in the referenced bytes hash differently,
	// and the reference survives canonicalization verbatim.
	refA, refB := strings.Repeat("aa", 32), strings.Repeat("bb", 32)
	fileA := `{"algo":"mis","graph":{"family":"file","file":"` + refA + `"},"model":{"seed":1}}`
	fileB := `{"algo":"mis","graph":{"family":"file","file":"` + refB + `"},"model":{"seed":1}}`
	if mustHash(t, fileA) == mustHash(t, fileB) {
		t.Error("graph file reference is not part of the canonical hash")
	}
	sa, err := Decode([]byte(fileA))
	if err != nil {
		t.Fatal(err)
	}
	ca, err := sa.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if ca.Graph.File != refA {
		t.Errorf("canonical file ref = %q, want %q", ca.Graph.File, refA)
	}

	// A stray file on a generator family is cleared by canonicalization (it
	// is rejected by Validate, but hashing is independent of validation).
	strayA := Scenario{Algo: "mis", Graph: graph.Spec{Family: "kforest", Params: param.Values{"n": 32}, File: refA}}
	cs, err := strayA.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Graph.File != "" {
		t.Errorf("generator-family file ref survived canonicalization: %q", cs.Graph.File)
	}
}

// TestRunOneFileFamilyWithCapacities drives the whole chain: ingest a graph
// into a store, reference it from a scenario by content hash, scale per-node
// capacities off its degrees, and check the Record reports the heterogeneous
// run. The file-family record must agree with the same computation run
// through the generator family.
func TestRunOneFileFamilyWithCapacities(t *testing.T) {
	graphio.SetStoreDir(t.TempDir())
	spec := graph.Spec{Family: "pa", Params: param.Values{"n": 96, "k": 2}, Seed: 5}
	g, err := graph.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := graphio.ActiveStore()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := st.PutGraph(g)
	if err != nil {
		t.Fatal(err)
	}

	caps := &graph.CapacitySpec{Policy: "degree"}
	fileScen := Scenario{Algo: "mis", Graph: graph.Spec{Family: "file", File: hash}, Model: Model{Seed: 3}, Capacities: caps}
	if err := fileScen.Validate(); err != nil {
		t.Fatal(err)
	}
	genScen := Scenario{Algo: "mis", Graph: spec, Model: Model{Seed: 3}, Capacities: caps}

	recFile, err := RunOne(fileScen)
	if err != nil {
		t.Fatal(err)
	}
	recGen, err := RunOne(genScen)
	if err != nil {
		t.Fatal(err)
	}
	if !recFile.Verified {
		t.Errorf("file-family run not verified: %s", recFile.VerifyErr)
	}
	if recFile.CapMin == 0 || recFile.CapMax < recFile.CapMin {
		t.Errorf("CapMin/CapMax = %d/%d, want a heterogeneous range", recFile.CapMin, recFile.CapMax)
	}
	if recFile.Stats.CapUtilMax <= 0 {
		t.Errorf("CapUtilMax = %v, want > 0 on a heterogeneous run", recFile.Stats.CapUtilMax)
	}
	// Identical computation: everything but the scenario echo must agree.
	recFile.Scenario, recGen.Scenario = Scenario{}, Scenario{}
	if !reflect.DeepEqual(recFile, recGen) {
		t.Errorf("file vs generator records diverge:\nfile %+v\ngen  %+v", recFile, recGen)
	}

	// Uniform policy leaves the record homogeneous.
	uni := Scenario{Algo: "mis", Graph: spec, Model: Model{Seed: 3}, Capacities: &graph.CapacitySpec{Policy: "uniform"}}
	recUni, err := RunOne(uni)
	if err != nil {
		t.Fatal(err)
	}
	if recUni.CapMin != 0 || recUni.CapMax != 0 || recUni.Stats.CapUtilMax != 0 {
		t.Errorf("uniform run reported heterogeneous fields: %+v", recUni)
	}
}
