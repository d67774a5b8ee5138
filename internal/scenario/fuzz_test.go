package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzScenarioDecode asserts the strict scenario decoder never panics, that
// Validate never panics on a scenario it accepted, and that the canonical
// hash survives a marshal/decode round trip of the canonical form (the hash
// is what the result cache and in-flight coalescing key on).
func FuzzScenarioDecode(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no shipped scenarios to seed from: %v", err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"algo":"mis","graph":{"family":"kforest"},"model":{"capfator":4}}`))
	f.Add([]byte(`{"algo":"bfs","graph":{"family":"file","file":"zz"}}`))
	f.Add([]byte(`{"algo":"mis","graph":{"family":"cycle","params":{"n":1e300}},"sweep":{"seeds":[3,1],"capfactor":[2,0]}}`))
	f.Add([]byte(`{"algo":"mst","graph":{"family":"gnm"},"kmachine":{"k":-1},"faults":{"models":[{"model":"crash","params":{"count":-4}}]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		s, err := Decode(data)
		if err != nil {
			return
		}
		_ = s.Validate()
		want, err := s.Hash()
		if err != nil {
			return
		}
		c, err := s.Canonical()
		if err != nil {
			t.Fatalf("Hash succeeded but Canonical failed: %v", err)
		}
		out, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("marshal of a canonical scenario: %v", err)
		}
		s2, err := Decode(out)
		if err != nil {
			t.Fatalf("re-decode of canonical %s: %v", out, err)
		}
		if got, err := s2.Hash(); err != nil || got != want {
			t.Fatalf("hash changed across a round trip: %s -> %s (%v)\ncanonical %s", want, got, err, out)
		}
	})
}
