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
	"time"
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
	rep, err := Execute(sp, Local())
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
	rep2, err := Execute(sp, Local())
	if err != nil {
		t.Fatalf("second Execute: %v", err)
	}
	b1, _ := json.Marshal(rep)
	b2, _ := json.Marshal(rep2)
	if string(b1) != string(b2) {
		t.Fatalf("report JSON is not deterministic:\n%s\n%s", b1, b2)
	}
}

// fixtureReport builds a report pair with known metric movements for the
// regression-delta math.
func fixtureReport(rounds, messages int64) Report {
	return Report{
		Campaign: "fix",
		Units:    2,
		Entries: []EntryReport{{
			Name: "e1",
			Variants: []VariantReport{
				{Variant: VariantNCC, Algo: "mis", Runs: 1, Verified: 1, Rounds: rounds, Messages: messages, Words: 4 * messages},
				{Variant: VariantBaseline, Algo: "mis-central", Runs: 1, Verified: 1, Rounds: 10 * rounds, Messages: messages, Words: 4 * messages},
			},
		}},
	}
}

func TestCompareAndRegressions(t *testing.T) {
	prev := fixtureReport(100, 1000)
	cur := fixtureReport(130, 900)
	deltas, missing := Compare(prev, cur)
	if len(missing) != 0 {
		t.Fatalf("missing = %v", missing)
	}
	// 2 variants x 3 nonzero metrics (kRounds is zero in prev and skipped).
	if len(deltas) != 6 {
		t.Fatalf("got %d deltas: %+v", len(deltas), deltas)
	}
	byKey := map[string]Delta{}
	for _, d := range deltas {
		byKey[d.Entry+"/"+string(d.Variant)+"/"+d.Metric] = d
	}
	d := byKey["e1/ncc/rounds"]
	if d.Prev != 100 || d.Cur != 130 || d.Frac < 0.299 || d.Frac > 0.301 {
		t.Fatalf("rounds delta = %+v, want +30%%", d)
	}
	if d := byKey["e1/ncc/messages"]; d.Frac > -0.099 || d.Frac < -0.101 {
		t.Fatalf("messages delta = %+v, want -10%%", d)
	}

	reg := Regressions(deltas, 0.2)
	if len(reg) != 2 { // rounds regressed on both variants; messages improved
		t.Fatalf("Regressions(0.2) = %+v, want the two rounds deltas", reg)
	}
	for _, d := range reg {
		if d.Metric != "rounds" {
			t.Fatalf("unexpected regression %+v", d)
		}
	}
	if got := Regressions(deltas, 0.5); len(got) != 0 {
		t.Fatalf("Regressions(0.5) = %+v, want none", got)
	}

	// A variant disappearing is reported, not silently ignored.
	shrunk := cur
	shrunk.Entries = []EntryReport{{Name: "e1", Variants: cur.Entries[0].Variants[:1]}}
	_, missing = Compare(prev, shrunk)
	if len(missing) != 1 || missing[0] != "e1/baseline" {
		t.Fatalf("missing = %v, want [e1/baseline]", missing)
	}
}

func TestHistoryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := HistoryPath(dir, "My Campaign/v1")
	if base := filepath.Base(path); base != "My-Campaign-v1.history.json" {
		t.Fatalf("HistoryPath sanitization: %s", base)
	}
	r1 := fixtureReport(100, 1000)
	r2 := fixtureReport(110, 1000)
	for i, r := range []Report{r1, r2} {
		snap := Snapshot{Time: time.Date(2026, 8, 1+i, 0, 0, 0, 0, time.UTC), Elapsed: float64(i + 1), Source: "local", Report: r}
		if err := AppendHistory(path, snap); err != nil {
			t.Fatalf("AppendHistory: %v", err)
		}
	}
	snaps, err := LoadHistory(path)
	if err != nil {
		t.Fatalf("LoadHistory: %v", err)
	}
	if len(snaps) != 2 || snaps[0].Report.Entries[0].Variants[0].Rounds != 100 || snaps[1].Report.Entries[0].Variants[0].Rounds != 110 {
		t.Fatalf("history contents: %+v", snaps)
	}
	// LoadReport on a history file yields the newest snapshot's report.
	r, err := LoadReport(path)
	if err != nil {
		t.Fatalf("LoadReport: %v", err)
	}
	if r.Entries[0].Variants[0].Rounds != 110 {
		t.Fatalf("LoadReport picked the wrong snapshot: %+v", r)
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

// TestCompareSmallReportPinned pins the exact bytes of the local report for
// the shipped campaigns/compare-small.json, as `ncccampaign -json` prints
// them: any change to records, trace hashes or report math moves the hash.
func TestCompareSmallReportPinned(t *testing.T) {
	path := filepath.Join("..", "..", "campaigns", "compare-small.json")
	sp, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Resolve(filepath.Dir(path)); err != nil {
		t.Fatal(err)
	}
	rep, err := Execute(sp, Local())
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(append(line, '\n'))
	const want = "a2018f4165a351f4f2e3a6608f3866fe35b0687f7655c80428a9984dea0ee492"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("compare-small report sha256 %s, want %s", got, want)
	}
}
