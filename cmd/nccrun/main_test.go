package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ncc/internal/obs"
)

// runCapture invokes run and returns (exit code, stdout, stderr).
func runCapture(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errw bytes.Buffer
	code := run(args, &out, &errw, nil)
	return code, out.String(), errw.String()
}

func TestRunBFSEndToEnd(t *testing.T) {
	code, out, errw := runCapture(t, "-algo", "bfs", "-graph", "grid", "-rows", "4", "-cols", "4")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw)
	}
	for _, want := range []string{"graph:", "BFS tree from 0", "(verified)", "stats: rounds="} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunColoringWithWorkers(t *testing.T) {
	// The -workers flag must not change results: same seed, two worker
	// counts, identical output.
	code1, out1, errw1 := runCapture(t, "-algo", "coloring", "-graph", "kforest", "-n", "32", "-workers", "1")
	if code1 != 0 {
		t.Fatalf("workers=1 exit %d, stderr: %s", code1, errw1)
	}
	code, out8, errw := runCapture(t, "-algo", "coloring", "-graph", "kforest", "-n", "32", "-workers", "8")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw)
	}
	if !strings.Contains(out8, "proper coloring") {
		t.Errorf("output missing coloring summary:\n%s", out8)
	}
	if out1 != out8 {
		t.Errorf("-workers changed output:\n--- w=1:\n%s\n--- w=8:\n%s", out1, out8)
	}
}

// TestRunTraceExportCSV checks the per-round CSV view of a run: nccrun -trace
// parsed and rendered as `ncctrace export -csv` does has one row per round,
// and its messages column sums to the run's message count.
func TestRunTraceExportCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.ndjson")
	// JSON mode exposes the measured round and message counts, so the CSV
	// can be checked exactly.
	code, out, errw := runCapture(t, "-algo", "mis", "-graph", "cycle", "-n", "16", "-trace", path, "-json")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw)
	}
	var rec struct {
		Stats struct {
			Rounds   int   `json:"rounds"`
			Messages int64 `json:"messages"`
		} `json:"stats"`
	}
	if err := json.Unmarshal([]byte(strings.TrimSpace(out)), &rec); err != nil {
		t.Fatalf("JSON record does not parse: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := obs.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	var csv strings.Builder
	obs.WriteCSV(&csv, tr)
	lines := strings.Split(strings.TrimRight(csv.String(), "\n"), "\n")
	if lines[0] != "run,round,messages,words,maxRecvOffered" {
		t.Errorf("CSV missing header: %q", lines[0])
	}
	if rows := len(lines) - 1; rows != rec.Stats.Rounds {
		t.Errorf("CSV has %d rows, run took %d rounds", rows, rec.Stats.Rounds)
	}
	var msgs int64
	for i, line := range lines[1:] {
		cols := strings.Split(line, ",")
		if len(cols) != 5 || cols[0] != "0" || cols[1] != strconv.Itoa(i) {
			t.Fatalf("row %d malformed: %q", i, line)
		}
		m, err := strconv.ParseInt(cols[2], 10, 64)
		if err != nil {
			t.Fatalf("row %d messages: %v", i, err)
		}
		msgs += m
	}
	if msgs != rec.Stats.Messages {
		t.Errorf("CSV messages sum to %d, run sent %d", msgs, rec.Stats.Messages)
	}
}

func TestRunJSONRecordParses(t *testing.T) {
	code, out, errw := runCapture(t, "-algo", "mis", "-graph", "kforest", "-n", "24", "-json")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1 {
		t.Fatalf("-json must emit exactly one line, got %d:\n%s", len(lines), out)
	}
	var rec struct {
		Scenario struct {
			Algo  string `json:"algo"`
			Graph struct {
				Family string `json:"family"`
			} `json:"graph"`
		} `json:"scenario"`
		Stats struct {
			Rounds int `json:"rounds"`
		} `json:"stats"`
		Verified bool `json:"verified"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("JSON record does not parse: %v\n%s", err, lines[0])
	}
	if rec.Scenario.Algo != "mis" || rec.Scenario.Graph.Family != "kforest" {
		t.Errorf("scenario echo wrong: %+v", rec.Scenario)
	}
	if !rec.Verified || rec.Stats.Rounds == 0 {
		t.Errorf("record incomplete: verified=%v rounds=%d", rec.Verified, rec.Stats.Rounds)
	}
}

func TestRunSweepIsDeterministic(t *testing.T) {
	args := []string{"-algo", "mis", "-graph", "kforest", "-n", "16",
		"-sweep-n", "12,16", "-sweep-seeds", "1,2", "-json"}
	code1, out1, errw1 := runCapture(t, args...)
	if code1 != 0 {
		t.Fatalf("exit %d, stderr: %s", code1, errw1)
	}
	lines := strings.Split(strings.TrimSpace(out1), "\n")
	if len(lines) != 4 {
		t.Fatalf("sweep produced %d records, want 4:\n%s", len(lines), out1)
	}
	for _, line := range lines {
		var v map[string]any
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Fatalf("sweep line does not parse: %v\n%s", err, line)
		}
	}
	code2, out2, _ := runCapture(t, args...)
	if code2 != 0 || out1 != out2 {
		t.Errorf("sweep output not deterministic across runs")
	}
}

func TestRunScenarioFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.json")
	spec := `{
		"algo": "coloring",
		"graph": {"family": "kforest", "params": {"n": 20, "k": 2}, "seed": 3},
		"model": {"seed": 3},
		"sweep": {"seeds": [3, 4]}
	}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errw := runCapture(t, "-scenario", path, "-json")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw)
	}
	if n := strings.Count(strings.TrimSpace(out), "\n") + 1; n != 2 {
		t.Errorf("got %d records, want 2:\n%s", n, out)
	}
	if strings.Contains(out, `"verified":false`) {
		t.Errorf("scenario runs failed verification:\n%s", out)
	}
	// The shipped example scenario must stay loadable.
	code, _, errw = runCapture(t, "-scenario", filepath.Join("..", "..", "scenarios", "mis-sweep.json"), "-json")
	if code != 0 {
		t.Fatalf("shipped scenario rejected: exit %d, stderr: %s", code, errw)
	}
}

func TestRunListsRegistries(t *testing.T) {
	code, out, errw := runCapture(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw)
	}
	for _, want := range []string{"algorithms:", "graph families:", "mst", "kforest", "params:"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list output missing %q:\n%s", want, out)
		}
	}
	// The whole listing is pinned: every registry entry, its order, its
	// description and its parameter defaults. The golden file is the test
	// binary's listing, so it includes the test-only spin-test algorithm.
	golden, err := os.ReadFile(filepath.Join("testdata", "list.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if out != string(golden) {
		t.Errorf("-list output differs from testdata/list.golden:\n%s", out)
	}
}

func TestRunListScenarioHashes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.json")
	spec := `{
		"algo": "mis",
		"graph": {"family": "kforest", "params": {"n": 16, "k": 2}, "seed": 5},
		"model": {"seed": 5},
		"sweep": {"seeds": [5, 6]}
	}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errw := runCapture(t, "-list", "-scenario", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want 5 (scenario/hash/runs + 2 runs):\n%s", len(lines), out)
	}
	if lines[0] != "scenario mis" {
		t.Errorf("header line: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "hash ") || len(lines[1]) != len("hash ")+64 {
		t.Errorf("sweep-level hash line malformed: %q", lines[1])
	}
	if lines[2] != "runs 2" {
		t.Errorf("runs line: %q", lines[2])
	}
	hashes := map[string]bool{strings.TrimPrefix(lines[1], "hash "): true}
	for i, line := range lines[3:] {
		if !strings.Contains(line, "seed="+strconv.Itoa(5+i)) {
			t.Errorf("run %d missing its sweep seed: %q", i, line)
		}
		j := strings.LastIndex(line, " hash ")
		if j < 0 {
			t.Fatalf("run %d has no hash: %q", i, line)
		}
		h := line[j+len(" hash "):]
		if len(h) != 64 || hashes[h] {
			t.Errorf("run %d hash not a fresh 64-hex id: %q", i, h)
		}
		hashes[h] = true
	}
	// Nothing executed: listing the hashes of a sweep must be instant and
	// side-effect free, so the output is deterministic across invocations.
	_, again, _ := runCapture(t, "-list", "-scenario", path)
	if out != again {
		t.Errorf("-list -scenario output not deterministic")
	}
}

func TestRunRejectsUnknownAlgo(t *testing.T) {
	code, _, errw := runCapture(t, "-algo", "nope", "-n", "8")
	if code != 2 {
		t.Fatalf("exit = %d, want usage-error exit 2", code)
	}
	if !strings.Contains(errw, "unknown algorithm") {
		t.Errorf("stderr missing diagnosis: %s", errw)
	}
}

func TestRunRejectsUnknownGraph(t *testing.T) {
	code, _, errw := runCapture(t, "-graph", "nope")
	if code != 2 {
		t.Fatalf("exit = %d, want 2; stderr: %s", code, errw)
	}
	if !strings.Contains(errw, "unknown graph family") {
		t.Errorf("stderr missing diagnosis: %s", errw)
	}
}

func TestRunRejectsUndeclaredExplicitFlag(t *testing.T) {
	// bipartite is sized by n1/n2, so an explicit -n must be rejected loudly
	// instead of silently running the default-size graph.
	code, _, errw := runCapture(t, "-algo", "mis", "-graph", "bipartite", "-n", "128")
	if code != 2 {
		t.Fatalf("exit = %d, want 2; stderr: %s", code, errw)
	}
	if !strings.Contains(errw, "-n") || !strings.Contains(errw, "bipartite") {
		t.Errorf("stderr missing diagnosis: %s", errw)
	}
	// The same -n left at its default is fine: nothing was silently dropped.
	code, _, errw = runCapture(t, "-algo", "mis", "-graph", "bipartite", "-gparam", "n1=10,n2=10,p=0.4")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw)
	}
}

func TestRunGParamSizesUndeclaredFamilies(t *testing.T) {
	code, out, errw := runCapture(t, "-algo", "mis", "-graph", "disjoint",
		"-gparam", "parts=2,size=6", "-json")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw)
	}
	var rec struct {
		Graph struct {
			N int `json:"n"`
		} `json:"graph"`
	}
	if err := json.Unmarshal([]byte(strings.TrimSpace(out)), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Graph.N != 12 {
		t.Errorf("graph has %d nodes, want parts*size = 12", rec.Graph.N)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	code, _, _ := runCapture(t, "-definitely-not-a-flag")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}
