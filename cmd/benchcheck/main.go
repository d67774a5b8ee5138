// Command benchcheck compares `go test -bench` output against a committed
// JSON baseline and fails on regressions beyond a tolerance. It is the CI
// regression gate for the engine, collective and ingest benchmarks (see
// BENCH_baseline.json at the repo root) and needs no dependencies beyond the
// standard library, so it runs identically in CI and on a laptop.
//
// Usage:
//
//	go test ./internal/ncc -bench BenchmarkEngineScale -benchtime 1x | tee bench.txt
//	go run ./cmd/benchcheck -baseline BENCH_baseline.json -match 'EngineScale/n=65536$' bench.txt
//	go run ./cmd/benchcheck -update -baseline BENCH_baseline.json bench.txt   # refresh
//
// By default it gates ns/op. -metric gates another reported metric instead,
// named by its unit (say "ratio", from b.ReportMetric), against the
// baseline's "metrics" map; -update with -metric writes that unit's values
// there. Every gated metric is lower-is-better. When a benchmark appears
// several times (e.g. -count=3), the smallest sample is used, like
// benchstat's min-based summaries.
//
// Campaign costs (rounds, messages, words) are not gated here: they are
// deterministic, so the campaign package's tests pin each shipped report's
// sha256 instead of allowing a tolerance.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Baseline is the committed benchmark reference. NsPerOp is keyed by the
// benchmark name with the -<GOMAXPROCS> suffix stripped; Metrics holds other
// reported metrics, keyed by unit and then by benchmark name.
type Baseline struct {
	Comment string                        `json:"comment,omitempty"`
	NsPerOp map[string]float64            `json:"nsPerOp"`
	Metrics map[string]map[string]float64 `json:"metrics,omitempty"`
}

// points returns the baseline's values for unit, or nil.
func (b *Baseline) points(unit string) map[string]float64 {
	if unit == "ns/op" {
		return b.NsPerOp
	}
	return b.Metrics[unit]
}

// setPoints replaces the baseline's values for unit.
func (b *Baseline) setPoints(unit string, p map[string]float64) {
	if unit == "ns/op" {
		b.NsPerOp = p
		return
	}
	if b.Metrics == nil {
		b.Metrics = map[string]map[string]float64{}
	}
	b.Metrics[unit] = p
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baselinePath := fs.String("baseline", "BENCH_baseline.json", "baseline JSON `file`")
	match := fs.String("match", ".", "compare only benchmarks matching this `regexp`")
	tolerance := fs.Float64("tolerance", 0.20, "allowed fractional regression before failing")
	unit := fs.String("metric", "ns/op", "gate (or, with -update, write) the reported metric of this `unit`; lower is better")
	update := fs.Bool("update", false, "write the parsed results as a new baseline instead of comparing")
	out := fs.String("out", "", "output `file` for -update (default: the -baseline path)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	results, err := parseInputs(fs.Args(), *unit, stdin)
	if err != nil {
		fmt.Fprintf(stderr, "benchcheck: %v\n", err)
		return 2
	}
	if len(results) == 0 {
		fmt.Fprintf(stderr, "benchcheck: no %s results found in input\n", *unit)
		return 2
	}

	if *update {
		path := *out
		if path == "" {
			path = *baselinePath
		}
		// Merge over the existing baseline rather than replacing it: a
		// partial bench run (one suite failed or was skipped) must not drop
		// the other suites' points from the refreshed file, or committing
		// it would leave later gates with no baseline entry to match.
		var b Baseline
		if data, err := os.ReadFile(*baselinePath); err == nil {
			if err := json.Unmarshal(data, &b); err != nil {
				b = Baseline{}
			}
		}
		merged := b.points(*unit)
		if merged == nil {
			merged = map[string]float64{}
		}
		for name, v := range results {
			merged[name] = v
		}
		b.setPoints(*unit, merged)
		b.Comment = "Engine benchmark baseline (best ns/op; metrics: best reported value by unit). Refresh with: go run ./cmd/benchcheck -update [-metric unit] -baseline " + *baselinePath + " <bench output>"
		data, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "benchcheck: %v\n", err)
			return 2
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "benchcheck: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "wrote %d benchmarks to %s\n", len(results), path)
		return 0
	}

	re, err := regexp.Compile(*match)
	if err != nil {
		fmt.Fprintf(stderr, "benchcheck: bad -match: %v\n", err)
		return 2
	}
	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintf(stderr, "benchcheck: %v\n", err)
		return 2
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(stderr, "benchcheck: %s: %v\n", *baselinePath, err)
		return 2
	}

	points := base.points(*unit)
	names := make([]string, 0, len(points))
	for name := range points {
		if re.MatchString(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintf(stderr, "benchcheck: no baseline %s points match %q\n", *unit, *match)
		return 2
	}

	failed := false
	for _, name := range names {
		want := points[name]
		got, ok := results[name]
		if !ok {
			fmt.Fprintf(stderr, "benchcheck: %s: in baseline but missing from input\n", name)
			failed = true
			continue
		}
		delta := (got - want) / want
		status := "ok"
		switch {
		case delta > *tolerance:
			status = "REGRESSION"
			failed = true
		case delta < -*tolerance:
			status = "improved"
		}
		prec := 0 // whole nanoseconds; other metrics may be ratios
		if *unit != "ns/op" {
			prec = 4
		}
		fmt.Fprintf(stdout, "%-50s %14.*f %s  baseline %14.*f  %+6.1f%%  %s\n",
			name, prec, got, *unit, prec, want, 100*delta, status)
	}
	if failed {
		fmt.Fprintf(stdout, "FAIL: %s regression beyond %.0f%% (refresh the baseline with -update if intentional)\n", *unit, 100**tolerance)
		return 1
	}
	return 0
}

// parseInputs reads each file (or stdin when no files are given) and returns
// the best (minimum) value of unit per benchmark name.
func parseInputs(files []string, unit string, stdin io.Reader) (map[string]float64, error) {
	results := map[string]float64{}
	read := func(r io.Reader) error {
		data, err := io.ReadAll(r)
		if err != nil {
			return err
		}
		parseBench(string(data), unit, results)
		return nil
	}
	if len(files) == 0 {
		return results, read(stdin)
	}
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return nil, err
		}
		err = read(fh)
		fh.Close()
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// parseBench extracts the "<value> <unit>" pair of each "Benchmark<Name>[-procs]
// <iters> ..." line, keeping the minimum value per name.
func parseBench(text, unit string, results map[string]float64) {
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		for i := 2; i+1 < len(fields); i++ {
			if fields[i+1] != unit {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			if old, ok := results[name]; !ok || v < old {
				results[name] = v
			}
			break
		}
	}
}
