package campaign

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// unitHashes returns the canonical hashes of the spec's expanded units.
func unitHashes(t *testing.T, sp Spec) []string {
	t.Helper()
	units, err := sp.Expand()
	if err != nil {
		t.Fatalf("Expand of a validated spec: %v", err)
	}
	hashes := make([]string, len(units))
	for i, u := range units {
		hashes[i] = u.Hash
	}
	return hashes
}

// FuzzCampaignDecode asserts the strict campaign decoder never panics, and
// that a spec which decodes and validates survives a marshal/decode round
// trip with the same expanded unit hashes (the hashes are what the result
// cache and the report key on).
func FuzzCampaignDecode(f *testing.F) {
	for _, name := range []string{"compare-small.json", "paper.json"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "campaigns", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(specJSON))
	f.Add([]byte(`{`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"name":"x","entries":[{"basline":"none"}]}`))
	f.Add([]byte(`{"name":"x","entries":[{"ref":"a.json","scenario":{"algo":"mis"}}]}`))
	f.Add([]byte(`{"name":"x","entries":[{"kmachine":{"k":-1},"scenario":{"algo":"bfs","graph":{"family":"grid","params":{"rows":2,"cols":2}}}}]}`))
	f.Add([]byte(`{"name":"x","sweep":{"seeds":[3,1]},"model":{"capfactor":2},"entries":[{"scenario":{"algo":"mis","graph":{"family":"cycle","params":{"n":1e300}}}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		sp, err := Decode(data)
		if err != nil || sp.Validate() != nil {
			return
		}
		want := unitHashes(t, sp)
		out, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("marshal of a validated spec: %v", err)
		}
		sp2, err := Decode(out)
		if err != nil {
			t.Fatalf("re-decode of %s: %v", out, err)
		}
		if got := unitHashes(t, sp2); !slices.Equal(got, want) {
			t.Fatalf("unit hashes changed across a round trip:\n%v\n%v\nspec %s", want, got, out)
		}
	})
}
