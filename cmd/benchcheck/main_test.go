package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const benchOutput = `goos: linux
goarch: amd64
pkg: ncc/internal/ncc
BenchmarkEngineScale/n=65536-8         	       3	 938956118 ns/op	   4466991 msgs/s	262923613 B/op	  431805 allocs/op
BenchmarkEngineScale/n=65536-8         	       3	 900000000 ns/op	   4600000 msgs/s	262923613 B/op	  431805 allocs/op
BenchmarkEngineScale/n=262144-8        	       1	3181536159 ns/op	    329582 msgs/s
PASS
`

func runCheck(t *testing.T, stdin string, args ...string) (int, string, string) {
	t.Helper()
	var out, errw bytes.Buffer
	code := run(args, strings.NewReader(stdin), &out, &errw)
	return code, out.String(), errw.String()
}

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseTakesMinimumAcrossCounts(t *testing.T) {
	results := map[string]float64{}
	parseBench(benchOutput, "ns/op", results)
	if got := results["BenchmarkEngineScale/n=65536"]; got != 9e8 {
		t.Errorf("min ns/op = %v, want 9e8", got)
	}
	if _, ok := results["BenchmarkEngineScale/n=262144"]; !ok {
		t.Error("second benchmark not parsed")
	}
}

func TestUpdateThenCompareRoundTrip(t *testing.T) {
	baseline := filepath.Join(t.TempDir(), "base.json")
	code, _, errw := runCheck(t, benchOutput, "-update", "-baseline", baseline)
	if code != 0 {
		t.Fatalf("update exit %d: %s", code, errw)
	}
	// Identical numbers compare clean.
	code, out, errw := runCheck(t, benchOutput, "-baseline", baseline, "-match", "EngineScale")
	if code != 0 {
		t.Fatalf("compare exit %d: %s\n%s", code, errw, out)
	}
	if !strings.Contains(out, "ok") {
		t.Errorf("expected ok rows:\n%s", out)
	}
}

func TestUpdateMergesOverExistingBaseline(t *testing.T) {
	// A partial bench run must not drop the other suites' points: points
	// absent from the input survive the refresh, points present are
	// replaced.
	baseline := writeFile(t, "base.json",
		`{"nsPerOp":{"BenchmarkAggregate/n=4096": 123, "BenchmarkEngineScale/n=65536": 5}}`)
	code, _, errw := runCheck(t, benchOutput, "-update", "-baseline", baseline)
	if code != 0 {
		t.Fatalf("update exit %d: %s", code, errw)
	}
	data, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"BenchmarkAggregate/n=4096": 123`) {
		t.Errorf("comm point dropped by engine-only refresh:\n%s", data)
	}
	if !strings.Contains(string(data), `"BenchmarkEngineScale/n=65536": 900000000`) {
		t.Errorf("engine point not replaced by refresh:\n%s", data)
	}
}

func TestRegressionBeyondToleranceFails(t *testing.T) {
	baseline := writeFile(t, "base.json",
		`{"nsPerOp": {"BenchmarkEngineScale/n=65536": 500000000}}`)
	code, out, _ := runCheck(t, benchOutput, "-baseline", baseline, "-match", "n=65536")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (9e8 is +80%% over 5e8)\n%s", code, out)
	}
	if !strings.Contains(out, "REGRESSION") {
		t.Errorf("missing REGRESSION marker:\n%s", out)
	}
}

func TestRegressionWithinTolerancePasses(t *testing.T) {
	baseline := writeFile(t, "base.json",
		`{"nsPerOp": {"BenchmarkEngineScale/n=65536": 800000000}}`)
	code, out, errw := runCheck(t, benchOutput, "-baseline", baseline, "-match", "n=65536")
	if code != 0 {
		t.Fatalf("exit = %d (9e8 is +12.5%% over 8e8, within 20%%): %s\n%s", code, errw, out)
	}
}

func TestMissingBenchmarkFails(t *testing.T) {
	baseline := writeFile(t, "base.json",
		`{"nsPerOp": {"BenchmarkEngineScale/n=1048576": 1}}`)
	code, _, errw := runCheck(t, benchOutput, "-baseline", baseline, "-match", "n=1048576")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 for missing benchmark", code)
	}
	if !strings.Contains(errw, "missing from input") {
		t.Errorf("missing diagnosis: %s", errw)
	}
}

func TestEmptyInputRejected(t *testing.T) {
	if code, _, _ := runCheck(t, "no benchmarks here"); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

const pairedOutput = `BenchmarkEngineProbe/probe=off-2         	       3	 369854313 ns/op
BenchmarkEngineProbe/probe=paired-2      	       3	 366709208 off-ns/op	 354349600 on-ns/op	         1.0463 ratio
BenchmarkEngineProbe/probe=paired-2      	       3	 366709208 off-ns/op	 354349600 on-ns/op	         0.9663 ratio
`

// TestMetricGate gates a reported metric other than ns/op: -update -metric
// writes the best value under "metrics" beside the untouched ns/op points,
// and a compare against it passes within the tolerance and fails beyond it.
func TestMetricGate(t *testing.T) {
	baseline := writeFile(t, "base.json", `{"nsPerOp":{"BenchmarkAggregate/n=4096": 123}}`)
	if code, _, errw := runCheck(t, pairedOutput, "-update", "-metric", "ratio", "-baseline", baseline); code != 0 {
		t.Fatalf("update exit %d: %s", code, errw)
	}
	data, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"BenchmarkAggregate/n=4096": 123`, `"ratio": {`, `"BenchmarkEngineProbe/probe=paired": 0.9663`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("refreshed baseline lacks %s:\n%s", want, data)
		}
	}
	if strings.Contains(string(data), "probe=off") {
		t.Errorf("a ratio refresh wrote an ns/op point:\n%s", data)
	}
	code, out, errw := runCheck(t, pairedOutput, "-baseline", baseline, "-metric", "ratio", "-match", "probe=paired$")
	if code != 0 || !strings.Contains(out, "0.9663 ratio") {
		t.Fatalf("compare exit %d: %s\n%s", code, errw, out)
	}
	worse := strings.ReplaceAll(pairedOutput, "0.9663", "1.2000")
	worse = strings.ReplaceAll(worse, "1.0463", "1.3000")
	if code, out, _ := runCheck(t, worse, "-baseline", baseline, "-metric", "ratio", "-match", "probe=paired$"); code != 1 || !strings.Contains(out, "REGRESSION") {
		t.Errorf("a ratio 24%% over its baseline: exit %d, want 1:\n%s", code, out)
	}
}
