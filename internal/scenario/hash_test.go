package scenario

import (
	"testing"

	"ncc/internal/ncc"
)

func mustHash(t *testing.T, js string) string {
	t.Helper()
	s, err := Decode([]byte(js))
	if err != nil {
		t.Fatalf("Decode(%s): %v", js, err)
	}
	h, err := s.Hash()
	if err != nil {
		t.Fatalf("Hash(%s): %v", js, err)
	}
	return h
}

func TestHashInvariances(t *testing.T) {
	base := `{"algo":"mis","graph":{"family":"kforest","params":{"n":32,"k":2},"seed":1},"model":{"capfactor":8,"seed":1},"sweep":{"n":[32,64],"seeds":[1,2,3]}}`
	want := mustHash(t, base)
	same := []struct {
		name string
		js   string
	}{
		{
			name: "JSON key order",
			js:   `{"sweep":{"seeds":[1,2,3],"n":[32,64]},"model":{"seed":1,"capfactor":8},"graph":{"seed":1,"params":{"k":2,"n":32},"family":"kforest"},"algo":"mis"}`,
		},
		{
			name: "omitted default capfactor",
			js:   `{"algo":"mis","graph":{"family":"kforest","params":{"n":32,"k":2},"seed":1},"model":{"seed":1},"sweep":{"n":[32,64],"seeds":[1,2,3]}}`,
		},
		{
			name: "omitted default graph param k",
			js:   `{"algo":"mis","graph":{"family":"kforest","params":{"n":32},"seed":1},"model":{"capfactor":8,"seed":1},"sweep":{"n":[32,64],"seeds":[1,2,3]}}`,
		},
		{
			name: "explicit default maxwords and maxrounds",
			js:   `{"algo":"mis","graph":{"family":"kforest","params":{"n":32,"k":2},"seed":1},"model":{"capfactor":8,"maxwords":12,"maxrounds":2097152,"seed":1},"sweep":{"n":[32,64],"seeds":[1,2,3]}}`,
		},
		{
			name: "sweep axis permutation",
			js:   `{"algo":"mis","graph":{"family":"kforest","params":{"n":32,"k":2},"seed":1},"model":{"capfactor":8,"seed":1},"sweep":{"n":[64,32],"seeds":[3,1,2]}}`,
		},
		{
			name: "display name and workers differ",
			js:   `{"name":"another-name","algo":"mis","graph":{"family":"kforest","params":{"n":32,"k":2},"seed":1},"model":{"capfactor":8,"seed":1,"workers":4},"sweep":{"n":[32,64],"seeds":[1,2,3]}}`,
		},
	}
	for _, tc := range same {
		t.Run(tc.name, func(t *testing.T) {
			if got := mustHash(t, tc.js); got != want {
				t.Fatalf("hash changed: got %s, want %s", got, want)
			}
		})
	}

	diff := []struct {
		name string
		js   string
	}{
		{
			name: "different algorithm",
			js:   `{"algo":"coloring","graph":{"family":"kforest","params":{"n":32,"k":2},"seed":1},"model":{"capfactor":8,"seed":1},"sweep":{"n":[32,64],"seeds":[1,2,3]}}`,
		},
		{
			name: "different graph param",
			js:   `{"algo":"mis","graph":{"family":"kforest","params":{"n":32,"k":3},"seed":1},"model":{"capfactor":8,"seed":1},"sweep":{"n":[32,64],"seeds":[1,2,3]}}`,
		},
		{
			name: "different capfactor",
			js:   `{"algo":"mis","graph":{"family":"kforest","params":{"n":32,"k":2},"seed":1},"model":{"capfactor":4,"seed":1},"sweep":{"n":[32,64],"seeds":[1,2,3]}}`,
		},
		{
			name: "different seed",
			js:   `{"algo":"mis","graph":{"family":"kforest","params":{"n":32,"k":2},"seed":2},"model":{"capfactor":8,"seed":2},"sweep":{"n":[32,64],"seeds":[1,2,3]}}`,
		},
		{
			name: "faults added",
			js:   `{"algo":"mis","graph":{"family":"kforest","params":{"n":32,"k":2},"seed":1},"model":{"capfactor":8,"seed":1},"faults":{"models":[{"model":"iid-drop","params":{"p":0.01}}]},"sweep":{"n":[32,64],"seeds":[1,2,3]}}`,
		},
		{
			name: "extra sweep value",
			js:   `{"algo":"mis","graph":{"family":"kforest","params":{"n":32,"k":2},"seed":1},"model":{"capfactor":8,"seed":1},"sweep":{"n":[32,64,128],"seeds":[1,2,3]}}`,
		},
		{
			name: "repeated sweep seed is a different run multiset",
			js:   `{"algo":"mis","graph":{"family":"kforest","params":{"n":32,"k":2},"seed":1},"model":{"capfactor":8,"seed":1},"sweep":{"n":[32,64],"seeds":[1,1,2,3]}}`,
		},
	}
	for _, tc := range diff {
		t.Run(tc.name, func(t *testing.T) {
			if got := mustHash(t, tc.js); got == want {
				t.Fatalf("semantic change did not change the hash (%s)", tc.name)
			}
		})
	}
}

func TestHashFaultNormalization(t *testing.T) {
	// An all-zero faults block is the same computation as no faults block.
	a := mustHash(t, `{"algo":"bfs","graph":{"family":"grid"}}`)
	b := mustHash(t, `{"algo":"bfs","graph":{"family":"grid"},"faults":{}}`)
	if a != b {
		t.Fatal("empty faults block changed the hash")
	}
	// Link-cut node sets are order-insensitive; fromround matters.
	c := mustHash(t, `{"algo":"bfs","graph":{"family":"grid"},"faults":{"models":[{"model":"link-cut","params":{"fromround":5},"to":[3,1,2]}]}}`)
	d := mustHash(t, `{"algo":"bfs","graph":{"family":"grid"},"faults":{"models":[{"model":"link-cut","params":{"fromround":5},"to":[1,2,3]}]}}`)
	if c != d {
		t.Fatal("link-cut to-set order changed the hash")
	}
	e := mustHash(t, `{"algo":"bfs","graph":{"family":"grid"},"faults":{"models":[{"model":"link-cut","params":{"fromround":6},"to":[1,2,3]}]}}`)
	if c == e {
		t.Fatal("fromround change did not change the hash")
	}
	// A spelled-out default parameter does not split the cache.
	f := mustHash(t, `{"algo":"bfs","graph":{"family":"grid"},"faults":{"models":[{"model":"link-cut","params":{"fromround":0},"to":[1]}]}}`)
	g := mustHash(t, `{"algo":"bfs","graph":{"family":"grid"},"faults":{"models":[{"model":"link-cut","to":[1]}]}}`)
	if f != g {
		t.Fatal("explicit default fromround changed the hash")
	}
}

func TestHashUnseededGraphSeed(t *testing.T) {
	// grid is unseeded: the graph seed cannot change the built graph. The
	// model seed still matters (it seeds the engine).
	a := mustHash(t, `{"algo":"bfs","graph":{"family":"grid","seed":1}}`)
	b := mustHash(t, `{"algo":"bfs","graph":{"family":"grid","seed":2}}`)
	if a != b {
		t.Fatal("seed of an unseeded family changed the hash")
	}
}

func TestCanonicalPinsEngineDefaults(t *testing.T) {
	// The canonical form must spell the engine defaults explicitly; if the
	// defaults ever change, previously cached results no longer describe the
	// same computation and the hash must change with them.
	s, err := Decode([]byte(`{"algo":"mis","graph":{"family":"kforest"}}`))
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if c.Model.CapFactor != ncc.DefaultCapFactor || c.Model.MaxWords != ncc.DefaultMaxWords || c.Model.MaxRounds != ncc.DefaultMaxRounds {
		t.Fatalf("canonical model %+v does not pin the engine defaults", c.Model)
	}
	if c.Model.Workers != 0 || c.Name != "" {
		t.Fatalf("canonical form retained non-semantic fields: %+v", c)
	}
}

func TestHashLegacyFaultsEqualModelSpecs(t *testing.T) {
	// The retired flat knobs {"dropprob":0.1,"dropto":[3,1],"fromround":5}
	// hashed to this literal; the model-spec spelling that replaced them
	// must keep it, so results cached under the old spelling stay reachable.
	const legacy = "7d6ae8945e0a14c2006154769a11b2a180a506c673e2f698a20107177db6f01f"
	models := mustHash(t, `{"algo":"bfs","graph":{"family":"grid"},"faults":{"models":[{"model":"iid-drop","params":{"p":0.1}},{"model":"link-cut","params":{"fromround":5},"to":[1,3]}]}}`)
	if models != legacy {
		t.Fatalf("model-spec faults hash %s, want the legacy spelling's %s", models, legacy)
	}
	crash := mustHash(t, `{"algo":"bfs","graph":{"family":"grid"},"faults":{"models":[{"model":"crash","params":{"count":2,"round":10}}]}}`)
	if crash == models {
		t.Fatal("a crash schedule hashes like a drop schedule")
	}
	// The sweep faults axis is hash-relevant.
	plain := mustHash(t, `{"algo":"bfs","graph":{"family":"grid"}}`)
	swept := mustHash(t, `{"algo":"bfs","graph":{"family":"grid"},"sweep":{"faults":[{},{"models":[{"model":"crash"}]}]}}`)
	if plain == swept {
		t.Fatal("sweep faults axis did not change the hash")
	}
}
