// Command ncctrace analyzes NCC telemetry traces (the NDJSON files written by
// `nccrun -trace`, `nccd`'s /v1/jobs/{id}/trace endpoint, or any tool using
// internal/obs). It never executes scenarios — it is a pure consumer of trace
// bytes, so its output is deterministic for a given input.
//
// Usage:
//
//	ncctrace summary trace.ndjson        per-run phase breakdown, round-rate
//	                                     curve, shard-imbalance percentiles
//	ncctrace diff good.ndjson bad.ndjson localize a regression: which runs and
//	                                     round ranges diverge (exit 1 if any)
//	ncctrace validate trace.ndjson       structural check + canonical hash
//	ncctrace export -pprof-labels t.ndjson  phase table keyed for pprof tag
//	                                        filtering (run=N labels)
//	ncctrace export -csv t.ndjson        per-round CSV: run,round,messages,
//	                                     words,maxRecvOffered
//
// A filename of "-" reads standard input, so daemon traces pipe directly:
//
//	curl -s $NCCD/v1/jobs/j0001/trace | ncctrace summary -
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"ncc/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

const usage = `usage: ncctrace <command> [flags] <trace.ndjson>

commands:
  summary   <trace>      human-readable per-run analysis
  diff      <a> <b>      structural comparison; exit 1 when traces differ
  validate  <trace>      structural check; prints the canonical hash
  export    [-pprof-labels | -csv] <trace>  machine-readable phase table,
            or (-csv) one CSV row per round

a trace argument of "-" reads standard input
`

// run is the testable entry point (0 ok, 1 analysis failure/difference,
// 2 usage).
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usage)
		return 2
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "summary":
		return cmdSummary(rest, stdin, stdout, stderr)
	case "diff":
		return cmdDiff(rest, stdin, stdout, stderr)
	case "validate":
		return cmdValidate(rest, stdin, stdout, stderr)
	case "export":
		return cmdExport(rest, stdin, stdout, stderr)
	case "-h", "-help", "--help", "help":
		fmt.Fprint(stdout, usage)
		return 0
	default:
		fmt.Fprintf(stderr, "ncctrace: unknown command %q\n%s", cmd, usage)
		return 2
	}
}

// load parses one trace argument ("-" is stdin).
func load(name string, stdin io.Reader) (*obs.Trace, error) {
	r := stdin
	if name != "-" {
		f, err := os.Open(name)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	t, err := obs.Parse(r)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return t, nil
}

func cmdSummary(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(stderr, "usage: ncctrace summary <trace.ndjson>")
		return 2
	}
	t, err := load(args[0], stdin)
	if err != nil {
		fmt.Fprintln(stderr, "ncctrace:", err)
		return 1
	}
	obs.WriteSummary(stdout, t)
	return 0
}

func cmdDiff(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: ncctrace diff <a.ndjson> <b.ndjson>")
		return 2
	}
	a, err := load(args[0], stdin)
	if err != nil {
		fmt.Fprintln(stderr, "ncctrace:", err)
		return 1
	}
	b, err := load(args[1], stdin)
	if err != nil {
		fmt.Fprintln(stderr, "ncctrace:", err)
		return 1
	}
	if obs.WriteDiff(stdout, args[0], args[1], a, b) {
		return 0
	}
	return 1
}

func cmdValidate(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(stderr, "usage: ncctrace validate <trace.ndjson>")
		return 2
	}
	var data []byte
	var err error
	if args[0] == "-" {
		data, err = io.ReadAll(stdin)
	} else {
		data, err = os.ReadFile(args[0])
	}
	if err != nil {
		fmt.Fprintln(stderr, "ncctrace:", err)
		return 1
	}
	if err := obs.Validate(data); err != nil {
		fmt.Fprintf(stderr, "ncctrace: %s: %v\n", args[0], err)
		return 1
	}
	t, err := obs.Parse(bytes.NewReader(data))
	if err != nil {
		fmt.Fprintln(stderr, "ncctrace:", err)
		return 1
	}
	fmt.Fprintf(stdout, "valid: %d runs, %d rounds, hash %s\n", len(t.Runs), t.Rounds(), hashOf(data))
	return 0
}

func cmdExport(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ncctrace export", flag.ContinueOnError)
	fs.SetOutput(stderr)
	pprofLabels := fs.Bool("pprof-labels", false, "frame the phase table as pprof tag keys (run=N), for -tagfocus on profiles from nccrun -cpuprofile")
	csv := fs.Bool("csv", false, "write per-round traffic as CSV (run,round,messages,words,maxRecvOffered) instead of the phase table")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 || *csv && *pprofLabels {
		fmt.Fprintln(stderr, "usage: ncctrace export [-pprof-labels | -csv] <trace.ndjson>")
		return 2
	}
	t, err := load(fs.Arg(0), stdin)
	if err != nil {
		fmt.Fprintln(stderr, "ncctrace:", err)
		return 1
	}
	if *csv {
		obs.WriteCSV(stdout, t)
	} else {
		obs.WritePhases(stdout, t, *pprofLabels)
	}
	return 0
}

// hashOf computes the canonical hash of raw trace bytes by splitting them into
// lines (the obs.Hash contract takes lines without trailing newlines).
func hashOf(data []byte) string {
	var lines [][]byte
	start := 0
	for i := 0; i <= len(data); i++ {
		if i == len(data) || data[i] == '\n' {
			if i > start {
				lines = append(lines, data[start:i])
			}
			start = i + 1
		}
	}
	return obs.Hash(lines)
}
