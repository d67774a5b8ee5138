package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const specJSON = `{
  "name": "unit-test",
  "sweep": {"seeds": [1, 2]},
  "model": {"maxrounds": 40000},
  "entries": [
    {"scenario": {"algo": "coloring", "graph": {"family": "gnp", "params": {"n": 40, "p": 0.15}}}},
    {"scenario": {"algo": "bfs", "graph": {"family": "grid", "params": {"rows": 6, "cols": 6}}}, "kmachine": {"k": 4}},
    {"name": "mis-solo", "baseline": "none",
     "scenario": {"algo": "mis", "graph": {"family": "cycle", "params": {"n": 48}}}}
  ]
}`

func decodeSpec(t *testing.T) Spec {
	t.Helper()
	sp, err := Decode([]byte(specJSON))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return sp
}

func TestDecodeStrictPaths(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"entry typo", `{"name":"x","entries":[{},{},{"basline":"none"}]}`, `entries[2].basline`},
		{"nested scenario typo", `{"name":"x","entries":[{"scenario":{"algo":"mis","grph":{}}}]}`, `entries[0].scenario.grph`},
		{"top-level typo", `{"nmae":"x"}`, `"nmae" (spec has`},
		{"model typo", `{"model":{"capfator":2}}`, `model.capfator`},
		{"removed send-cap switch", `{"model":{"nonstrict":true}}`, `unknown field "model.nonstrict" (model has capfactor, maxrounds, maxwords, seed, workers)`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode([]byte(tc.doc))
			if err == nil {
				t.Fatalf("Decode accepted %s", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	if _, err := Decode([]byte(specJSON)); err != nil {
		t.Fatalf("Decode rejected a valid spec: %v", err)
	}
}

func TestExpandDeterministic(t *testing.T) {
	sp := decodeSpec(t)
	if err := sp.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	units, err := sp.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	// coloring gets ncc+baseline, bfs gets ncc+baseline+kmachine, mis-solo
	// opted out of its baseline pairing: 6 units in entry-then-variant order.
	type uv struct {
		entry   string
		variant Variant
		algo    string
	}
	var got []uv
	for _, u := range units {
		got = append(got, uv{u.Entry, u.Variant, u.Scenario.Algo})
	}
	want := []uv{
		{"coloring", VariantNCC, "coloring"},
		{"coloring", VariantBaseline, "coloring-central"},
		{"bfs", VariantNCC, "bfs"},
		{"bfs", VariantBaseline, "bfs-naive"},
		{"bfs", VariantKMachine, "bfs"},
		{"mis-solo", VariantNCC, "mis"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("expansion order:\n got %v\nwant %v", got, want)
	}
	for _, u := range units {
		if u.Scenario.Sweep == nil || len(u.Scenario.Sweep.Seeds) != 2 {
			t.Fatalf("unit %s/%s: campaign sweep default not applied: %+v", u.Entry, u.Variant, u.Scenario.Sweep)
		}
		if u.Scenario.Model.MaxRounds != 40000 {
			t.Fatalf("unit %s/%s: campaign model default not applied", u.Entry, u.Variant)
		}
	}
	if units[4].Scenario.KMachine == nil || units[4].Scenario.KMachine.K != 4 {
		t.Fatalf("kmachine variant lost its accounting block: %+v", units[4].Scenario.KMachine)
	}
	if units[2].Scenario.KMachine != nil {
		t.Fatalf("ncc variant gained a kmachine block")
	}

	// Re-expansion is bit-identical, including hashes; names never leak into
	// hashes (the ncc and kmachine variants differ, ncc and baseline differ).
	again, err := sp.Expand()
	if err != nil {
		t.Fatalf("second Expand: %v", err)
	}
	if !reflect.DeepEqual(units, again) {
		t.Fatalf("Expand is not deterministic")
	}
	seen := map[string]string{}
	for _, u := range units {
		if prev, dup := seen[u.Hash]; dup {
			t.Fatalf("distinct units %s and %s/%s share hash %s", prev, u.Entry, u.Variant, u.Hash)
		}
		seen[u.Hash] = u.Entry + "/" + string(u.Variant)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"no name", `{"entries":[{"scenario":{"algo":"mis","graph":{"family":"cycle","params":{"n":8}}}}]}`, "no name"},
		{"no entries", `{"name":"x"}`, "no entries"},
		{"unresolved ref", `{"name":"x","entries":[{"ref":"a.json"}]}`, "unresolved ref"},
		{"no scenario", `{"name":"x","entries":[{"baseline":"none"}]}`, "needs a ref or an inline scenario"},
		{"unknown baseline", `{"name":"x","entries":[{"baseline":"nope","scenario":{"algo":"mis","graph":{"family":"cycle","params":{"n":8}}}}]}`, "nope"},
		{"duplicate names", `{"name":"x","entries":[
			{"scenario":{"algo":"mis","graph":{"family":"cycle","params":{"n":8}}}},
			{"scenario":{"algo":"mis","graph":{"family":"cycle","params":{"n":16}}}}]}`, "collides"},
		{"double kmachine", `{"name":"x","entries":[{"kmachine":{"k":2},
			"scenario":{"algo":"mis","kmachine":{"k":4},"graph":{"family":"cycle","params":{"n":8}}}}]}`, "kmachine"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp, err := Decode([]byte(tc.doc))
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			err = sp.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

func TestExecuteLocalAndReport(t *testing.T) {
	sp, err := Decode([]byte(`{
	  "name": "exec-test",
	  "entries": [
	    {"scenario": {"algo": "mis", "graph": {"family": "cycle", "params": {"n": 32}},
	      "sweep": {"seeds": [1, 2]}}},
	    {"name": "mis-k", "baseline": "none", "kmachine": {"k": 4},
	     "scenario": {"algo": "mis", "graph": {"family": "cycle", "params": {"n": 32}}}}
	  ]
	}`))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if err := sp.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	rep, err := Execute(sp)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if rep.Campaign != "exec-test" || len(rep.Entries) != 2 || rep.Units != 4 {
		t.Fatalf("report shape: %+v", rep)
	}
	// 2 sweep seeds x (ncc + baseline) + 1 ncc + 1 kmachine = 6 runs.
	if rep.Runs != 6 || rep.Verified != 6 || rep.Errors != 0 {
		t.Fatalf("runs/verified/errors = %d/%d/%d, want 6/6/0", rep.Runs, rep.Verified, rep.Errors)
	}
	// Speedup is the baseline-rounds-per-NCC-round quotient of the sums (on a
	// 32-cycle the centralized gather wins; the ratio just has to be right).
	mis := rep.Entries[0]
	wantSpeedup := math.Round(float64(mis.Variants[1].Rounds)/float64(mis.Variants[0].Rounds)*1000) / 1000
	if mis.Speedup != wantSpeedup || mis.Speedup <= 0 {
		t.Fatalf("speedup = %v, want %v", mis.Speedup, wantSpeedup)
	}
	var kr *VariantReport
	for i := range rep.Entries[1].Variants {
		if rep.Entries[1].Variants[i].Variant == VariantKMachine {
			kr = &rep.Entries[1].Variants[i]
		}
	}
	if kr == nil || kr.KRounds == 0 || kr.CrossMessages == 0 {
		t.Fatalf("kmachine variant missing accounting: %+v", kr)
	}

	// Determinism end to end: a second execution marshals byte-identically.
	rep2, err := Execute(sp)
	if err != nil {
		t.Fatalf("second Execute: %v", err)
	}
	b1, _ := json.Marshal(rep)
	b2, _ := json.Marshal(rep2)
	if string(b1) != string(b2) {
		t.Fatalf("report JSON is not deterministic:\n%s\n%s", b1, b2)
	}
}

func TestResolveRefs(t *testing.T) {
	dir := t.TempDir()
	scPath := filepath.Join(dir, "mis.json")
	if err := os.WriteFile(scPath, []byte(`{"algo":"mis","graph":{"family":"cycle","params":{"n":16}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	sp, err := Decode([]byte(`{"name":"x","entries":[{"ref":"mis.json"}]}`))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if err := sp.Resolve(dir); err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if sp.Entries[0].Ref != "" || sp.Entries[0].Scenario == nil || sp.Entries[0].Scenario.Algo != "mis" {
		t.Fatalf("ref not inlined: %+v", sp.Entries[0])
	}
	if err := sp.Validate(); err != nil {
		t.Fatalf("Validate after Resolve: %v", err)
	}
}

// shippedReports pins the exact bytes of the local report for each shipped
// campaign file, as `ncccampaign -json` prints them: any change to records,
// trace hashes or report math moves the hash. Every file under campaigns/ is
// a spec and must have an entry here. A slow campaign (paper.json regenerates
// the evaluation tables, tens of thousands of MST rounds) is skipped under
// -short.
var shippedReports = map[string]struct {
	sha256 string
	slow   bool
}{
	"compare-small.json": {"a2018f4165a351f4f2e3a6608f3866fe35b0687f7655c80428a9984dea0ee492", false},
	"paper.json":         {"994f4348efac62837f6c9a8d5667b900eaae2922828c74e9921ab129d7551e22", true},
}

// TestShippedCampaignReportsPinned is the campaigns' regression check. It
// fails on a changed report, on a shipped spec without a pinned hash, and on
// a pinned hash whose file is gone.
func TestShippedCampaignReportsPinned(t *testing.T) {
	dir := filepath.Join("..", "..", "campaigns")
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	shipped := map[string]bool{}
	for _, path := range paths {
		shipped[filepath.Base(path)] = true
	}
	for file := range shippedReports {
		if !shipped[file] {
			t.Errorf("pinned campaign %s is not in campaigns/; drop its hash", file)
		}
	}
	for _, path := range paths {
		file := filepath.Base(path)
		t.Run(file, func(t *testing.T) {
			pin, ok := shippedReports[file]
			if !ok {
				t.Fatalf("campaigns/%s has no pinned report hash; add its sha256 to shippedReports", file)
			}
			if pin.slow && testing.Short() {
				t.Skip("regenerates the paper's tables; skipped under -short")
			}
			sp, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := sp.Resolve(dir); err != nil {
				t.Fatal(err)
			}
			rep, err := Execute(sp)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Errors != 0 || rep.Verified != rep.Runs {
				t.Fatalf("%s: %d errors, %d of %d runs verified", file, rep.Errors, rep.Verified, rep.Runs)
			}
			line, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(append(line, '\n'))
			if got := hex.EncodeToString(sum[:]); got != pin.sha256 {
				t.Fatalf("%s report sha256 %s, want %s", file, got, pin.sha256)
			}
		})
	}
}

func TestRenderTextSpeedup(t *testing.T) {
	r := Report{Campaign: "fix", Entries: []EntryReport{{
		Name: "mst",
		Variants: []VariantReport{
			{Variant: VariantNCC, Algo: "mst", Runs: 1, Verified: 1, Rounds: 37913},
			{Variant: VariantBaseline, Algo: "mst-central", Runs: 1, Verified: 1, Rounds: 156},
		},
		Speedup: 0.004,
	}}}
	var b strings.Builder
	if err := RenderText(&b, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), " 0.004x\n") {
		t.Fatalf("speedup not printed as 0.004x:\n%s", b.String())
	}
}
