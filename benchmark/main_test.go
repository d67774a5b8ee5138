package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// benchmarkJSON is the part of ../BENCHMARK.json the program must agree with.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// readmeTable returns the backticked first cell and the other cells of every
// row of the first README.md table under heading.
func readmeTable(t *testing.T, heading string) (names []string, rows [][]string) {
	t.Helper()
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(data), "\n"+heading)
	if !ok {
		t.Fatalf("README.md has no heading %q", heading)
	}
	inTable := false
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		if !strings.HasPrefix(line, "| `") {
			continue // the header and its rule
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		names = append(names, strings.Trim(cells[0], "`"))
		rows = append(rows, cells[1:])
	}
	return names, rows
}

// TestMetricsMatchBenchmarkJSONAndReadme pins BENCHMARK.json and README.md to
// the program: the same workloads with the same reasons, the same metrics
// with the same units, directions and bounds, and for every per-layer metric
// the end-to-end metrics and workloads it should move, all of which exist.
func TestMetricsMatchBenchmarkJSONAndReadme(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var names []string
	for i, w := range b.Workloads {
		names = append(names, w.Name)
		if i < len(workloads) && w.Why != workloads[i].why {
			t.Errorf("workload %s: why differs:\nBENCHMARK.json: %s\nprogram:        %s", w.Name, w.Why, workloads[i].why)
		}
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	e2e := defsFor(false)
	if len(b.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, program %d", len(b.EndToEnd), len(e2e))
	}
	for i := range min(len(b.EndToEnd), len(e2e)) {
		got, d := b.EndToEnd[i], e2e[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, program has %s %s %s %g", i, got, d.Name, d.Unit, d.Better, d.Bound)
		}
	}
	layer := defsFor(true)
	if len(b.PerLayer) != len(layer) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, program %d", len(b.PerLayer), len(layer))
	}
	for i := range min(len(b.PerLayer), len(layer)) {
		got, d := b.PerLayer[i], layer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, program has %s %s %s", i, got, d.Name, d.Unit, d.Better)
		}
	}

	names, rows := readmeTable(t, "### End-to-end")
	if len(names) != len(e2e) {
		t.Errorf("README.md lists %d end-to-end metrics, program %d", len(names), len(e2e))
	}
	for i := range min(len(names), len(e2e)) {
		d := e2e[i]
		if want := []string{d.Unit, d.Better, strconv.FormatFloat(d.Bound, 'f', 2, 64)}; names[i] != d.Name || !slices.Equal(rows[i][:3], want) {
			t.Errorf("README.md end-to-end row %d = %s %v, program has %s %v", i, names[i], rows[i][:3], d.Name, want)
		}
	}
	names, rows = readmeTable(t, "### Per-layer")
	if len(names) != len(layer) {
		t.Errorf("README.md lists %d per-layer metrics, program %d", len(names), len(layer))
	}
	for i := range min(len(names), len(layer)) {
		d := layer[i]
		moves := strings.ReplaceAll(rows[i][2], "`", "")
		if names[i] != d.Name || rows[i][0] != d.Unit || moves != d.Moves {
			t.Errorf("README.md per-layer row %d = %s %s %q, program has %s %s %q", i, names[i], rows[i][0], moves, d.Name, d.Unit, d.Moves)
		}
	}

	known := map[string]bool{}
	for _, d := range e2e {
		known[d.Name] = true
	}
	for _, w := range workloads {
		known[w.name] = true
	}
	for _, d := range layer {
		if strings.HasPrefix(d.Moves, "none: ") {
			continue
		}
		for _, clause := range strings.Split(d.Moves, "; ") {
			refs := []string{clause}
			if on, ok := strings.CutPrefix(clause, "not on "); ok {
				refs = strings.Split(on, ", ")
			} else if metrics, on, ok := strings.Cut(clause, " on "); ok {
				refs = append(strings.Split(metrics, ", "), strings.Split(on, ", ")...)
			}
			for _, ref := range refs {
				if !known[ref] {
					t.Errorf("%s moves %q: %q is no end-to-end metric or workload", d.Name, d.Moves, ref)
				}
			}
		}
	}
}

// TestWorkloadsSmall runs every workload at the small size, untraced and
// traced: every check passes, the printed metrics are exactly BENCHMARK.json's
// sets, and the exact model costs at seed 1 match testdata/small-seed1.json.
// It makes no timing assertion.
func TestWorkloadsSmall(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var e2e, layer []string
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range b.PerLayer {
		layer = append(layer, m.Name)
	}
	golden := filepath.Join("testdata", "small-seed1.json")
	var want map[string]map[string]float64
	if !*update {
		data, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	got := map[string]map[string]float64{}
	t.Run("group", func(t *testing.T) {
		for _, w := range workloads {
			t.Run(w.name, func(t *testing.T) {
				t.Parallel()
				for _, traced := range []bool{false, true} {
					o := runOpts{cfg: runConfig{seed: 1, root: "..", small: true}, seconds: 1, traced: traced}
					res, err := runWorkload(io.Discard, w, o)
					if err != nil {
						t.Fatalf("traced=%v: %v", traced, err)
					}
					if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
						t.Fatalf("traced=%v: correct=%v failed=%d attempted=%d", traced, res.Correct, res.Failed, res.Attempted)
					}
					names := make([]string, 0, len(res.Metrics))
					for name := range res.Metrics {
						names = append(names, name)
					}
					slices.Sort(names)
					wantNames := slices.Clone(e2e)
					if traced {
						wantNames = slices.Clone(layer)
					}
					slices.Sort(wantNames)
					if !slices.Equal(names, wantNames) {
						t.Errorf("traced=%v: printed metrics %v, BENCHMARK.json has %v", traced, names, wantNames)
					}
					if traced {
						mu.Lock()
						got[w.name] = map[string]float64{
							"sim_rounds": res.Metrics["sim_rounds"].Value,
							"sim_msgs":   res.Metrics["sim_msgs"].Value,
						}
						mu.Unlock()
					}
				}
			})
		}
	})
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, w := range workloads {
		for _, m := range []string{"sim_rounds", "sim_msgs"} {
			if got[w.name][m] != want[w.name][m] {
				t.Errorf("%s %s = %v, pinned %v", w.name, m, got[w.name][m], want[w.name][m])
			}
		}
	}
}

// TestSummarizeGolden pins the -summarize table on a small spans file.
func TestSummarizeGolden(t *testing.T) {
	var out bytes.Buffer
	if err := summarizeFile(&out, filepath.Join("testdata", "spans.ndjson")); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "summary.golden")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("summary differs from %s:\n%s", golden, out.Bytes())
	}
}

// TestQuartilesMatchPython checks quartiles against Python's
// statistics.quantiles(xs, n=4) on the same inputs (Python refuses a single
// value; quartiles returns it three times).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}
