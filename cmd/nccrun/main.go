// Command nccrun executes Node-Capacitated Clique algorithms on generated
// input graphs. Algorithms and graph families are resolved through the
// registries (internal/algo, internal/graph); a run is described by a
// scenario — assembled from flags or loaded from a JSON file — and can sweep
// over n, capfactor and seeds. Results print as human-readable summaries or,
// with -json, as one JSON record per run (scenario echo + graph info + stats
// + verification status).
//
// Usage examples:
//
//	nccrun -list
//	nccrun -algo mst -graph gnm -n 128 -m 384
//	nccrun -algo mis -graph kforest -n 256 -k 4 -json
//	nccrun -algo bfs -graph grid -rows 8 -cols 16 -src 0
//	nccrun -algo matching -graph bipartite -gparam n1=64,n2=32,p=0.1
//	nccrun -algo coloring -graph pa -n 200 -k 3 -sweep-n 64,128,256 -sweep-seeds 1,2,3 -json
//	nccrun -algo mis -graph kforest -n 256 -k 4 -sweep-seeds 1,2,3 -trace run.ndjson
//	nccrun -scenario scenarios/mis-sweep.json -json
//	nccrun -scenario scenarios/mis-sweep.json -remote http://127.0.0.1:9876 -json
//	nccrun -scenario scenarios/mis-sweep.json -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"

	"ncc/internal/algo"
	"ncc/internal/blob"
	"ncc/internal/faultmodel"
	"ncc/internal/graph"
	"ncc/internal/graphio"
	"ncc/internal/ncc"
	"ncc/internal/obs"
	"ncc/internal/param"
	"ncc/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is the testable entry point: it parses args, executes the scenario,
// and returns a process exit code (0 ok, 1 run/verification failure, 2 usage).
// sigs feeds interrupt handling in -remote mode; nil installs the real
// SIGINT/SIGTERM handler there (tests inject their own channel). Local runs
// keep default signal disposition — Ctrl-C kills them outright.
func run(args []string, stdout, stderr io.Writer, sigs <-chan os.Signal) int {
	fs := flag.NewFlagSet("nccrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenarioFile := fs.String("scenario", "", "load the scenario from this JSON file (overrides the per-run flags)")
	remote := fs.String("remote", "", "submit to a running nccd at this base URL (e.g. http://127.0.0.1:9876) and tail the stream instead of executing locally")
	token := fs.String("token", "", "bearer token for a token-protected nccd (-remote)")
	list := fs.Bool("list", false, "list registered algorithms and graph families; with -scenario, list the scenario's expanded runs and canonical hashes instead")
	jsonOut := fs.Bool("json", false, "emit one JSON record per run instead of human-readable text")
	algoName := fs.String("algo", "mst", "algorithm (see -list)")
	gname := fs.String("graph", "gnm", "graph family (see -list)")
	n := fs.Int("n", 64, "number of nodes")
	m := fs.Int("m", 0, "edges for gnm (default 3n)")
	p := fs.Float64("p", 0.1, "edge probability for gnp")
	k := fs.Int("k", 2, "forests for kforest / attachments for pa / dimension for hypercube")
	rows := fs.Int("rows", 8, "grid rows")
	cols := fs.Int("cols", 8, "grid cols")
	src := fs.Int("src", 0, "BFS source")
	maxW := fs.Int64("maxw", 1000, "maximum edge weight for mst")
	seed := fs.Int64("seed", 1, "seed (runs are deterministic per seed)")
	capf := fs.Int("capfactor", ncc.DefaultCapFactor, "capacity = capfactor * ceil(log2 n) messages/round")
	graphFile := fs.String("graph-file", "", "run on a real graph: a .nccg file path (ingested into the graph store first) or the 64-hex content hash of an already-stored graph; overrides -graph")
	graphDir := fs.String("graph-dir", "", "content-addressed graph store directory (default $NCC_GRAPH_DIR or ./graphs)")
	gparam := fs.String("gparam", "", "extra graph params as name=value,... (for families like bipartite or disjoint)")
	aparam := fs.String("aparam", "", "extra algorithm params as name=value,...")
	workers := fs.Int("workers", 0, "round-engine delivery workers (0 = GOMAXPROCS, at most one per 128 nodes); does not change results")
	traceFile := fs.String("trace", "", "write the run's canonical NDJSON telemetry trace to this file (with -remote, fetched from the daemon)")
	traceTiming := fs.Bool("trace-timing", false, "interleave non-canonical per-shard timing lines into the -trace file (local runs only)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the local runs to `file` (pprof-labeled per run)")
	memprofile := fs.String("memprofile", "", "write a heap profile to `file` after the runs finish")
	sweepN := fs.String("sweep-n", "", "comma-separated n values to sweep")
	sweepCap := fs.String("sweep-capfactor", "", "comma-separated capfactor values to sweep")
	sweepSeeds := fs.String("sweep-seeds", "", "comma-separated seeds to sweep")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *graphDir != "" {
		graphio.SetStoreDir(*graphDir)
	}
	if *list {
		if *scenarioFile != "" {
			return listScenario(*scenarioFile, stdout, stderr)
		}
		printRegistries(stdout)
		return 0
	}

	var s scenario.Scenario
	if *scenarioFile != "" {
		var err error
		s, err = scenario.Load(*scenarioFile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		if *workers != 0 {
			s.Model.Workers = *workers
		}
	} else {
		flagVals := param.Values{
			"n": float64(*n), "m": float64(*m), "p": *p, "k": float64(*k),
			"rows": float64(*rows), "cols": float64(*cols),
			"src": float64(*src), "maxw": float64(*maxW),
		}
		explicit := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		var err error
		s, err = fromFlags(*algoName, *gname, flagVals, explicit, *gparam, *aparam, *seed, *capf, *workers)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		sweep, err := parseSweep(*sweepN, *sweepCap, *sweepSeeds)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		s.Sweep = sweep
	}
	if *graphFile != "" {
		ref := *graphFile
		if !blob.ValidHash(ref) {
			// A path: ingest the .nccg file into the store (idempotent) and
			// run against its content hash.
			st, err := graphio.ActiveStore()
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			if ref, err = st.PutFile(ref); err != nil {
				fmt.Fprintf(stderr, "-graph-file %s: %v\n", *graphFile, err)
				return 2
			}
		}
		s.Graph = graph.Spec{Family: "file", File: ref}
	}
	if err := s.Validate(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	runs := s.Expand()
	if *traceTiming && *traceFile == "" {
		fmt.Fprintln(stderr, "-trace-timing requires -trace")
		return 2
	}
	if *remote != "" {
		if *traceTiming {
			fmt.Fprintln(stderr, "-trace-timing is not supported with -remote (daemon traces are canonical-only)")
			return 2
		}
		if *cpuprofile != "" || *memprofile != "" {
			fmt.Fprintln(stderr, "-cpuprofile/-memprofile profile local execution and are not supported with -remote")
			return 2
		}
		if sigs == nil {
			ch := make(chan os.Signal, 1)
			signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
			defer signal.Stop(ch)
			sigs = ch
		}
		return runRemote(*remote, *token, s, *jsonOut, len(runs), *traceFile, stdout, stderr, sigs)
	}

	// Profiling hooks: a slow scenario is diagnosable with `go tool pprof
	// <binary> cpu.out`. CPU samples carry run/scenario pprof labels, so one
	// sweep profile splits per run.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // record the settled heap, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
			}
		}()
	}

	var col *obs.Collector
	if *traceFile != "" {
		col = &obs.Collector{WithTiming: *traceTiming}
	}
	code := 0
	for i, c := range runs {
		var rec scenario.Record
		var err error
		runOne := func() {
			if col != nil {
				rec, err = scenario.RunTraced(c, col, scenario.RunOpts{})
			} else {
				rec, err = scenario.RunOne(c)
			}
		}
		if *cpuprofile != "" {
			hash, _ := c.Hash()
			pprof.Do(context.Background(), pprof.Labels("run", strconv.Itoa(i), "scenario", hash), func(context.Context) {
				// Node executors inherit the labels of the goroutine that
				// starts them: drop the last run's, so this run starts its own.
				ncc.ReleaseSpare()
				runOne()
			})
		} else {
			runOne()
		}
		if err != nil {
			rec.Error = err.Error()
		}
		if *jsonOut {
			line, jerr := json.Marshal(rec)
			if jerr != nil {
				fmt.Fprintln(stderr, "error:", jerr)
				return 1
			}
			fmt.Fprintln(stdout, string(line))
		} else if len(runs) == 1 {
			printSingle(stdout, rec)
		} else {
			printSweepLine(stdout, rec)
		}
		switch {
		case rec.Error != "":
			fmt.Fprintln(stderr, "error:", rec.Error)
			code = 1
		case degradedOK(rec):
			// A fault-injected run that degraded but kept its survivors
			// consistent is the expected outcome, not a failure.
		case !rec.Verified:
			fmt.Fprintln(stderr, "verification failed:", rec.VerifyErr)
			code = 1
		}
	}
	if col != nil {
		if err := os.WriteFile(*traceFile, col.Bytes(), 0o644); err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
		if !*jsonOut {
			// The hash covers canonical lines only, so it matches the daemon's
			// trace id for the same scenario even with -trace-timing.
			fmt.Fprintf(stdout, "trace: %d lines (%s) written to %s\n", len(col.Lines()), col.Hash(), *traceFile)
		}
	}
	return code
}

// fromFlags assembles a scenario from the per-run flags. A dedicated flag
// (-n, -rows, ...) is kept only when the chosen graph family or algorithm
// declares a parameter of that name; passing one explicitly that neither
// declares is a usage error, never a silent no-op. -gparam/-aparam reach
// parameters that have no dedicated flag (e.g. bipartite's n1/n2).
func fromFlags(algoName, gname string, flagVals param.Values, explicit map[string]bool,
	gparam, aparam string, seed int64, capf, workers int) (scenario.Scenario, error) {
	d, ok := algo.Get(algoName)
	if !ok {
		return scenario.Scenario{}, algo.ErrUnknown(algoName)
	}
	f, ok := graph.GetFamily(gname)
	if !ok {
		return scenario.Scenario{}, fmt.Errorf("unknown graph family %q (have %s)",
			gname, strings.Join(graph.FamilyNames(), ", "))
	}
	declared := func(defs []param.Def, name string) bool {
		for _, def := range defs {
			if def.Name == name {
				return true
			}
		}
		return false
	}
	pick := func(defs []param.Def) param.Values {
		out := param.Values{}
		for _, def := range defs {
			if v, ok := flagVals[def.Name]; ok {
				out[def.Name] = v
			}
		}
		return out
	}
	for name := range flagVals {
		if explicit[name] && !declared(f.Params, name) && !declared(d.Params, name) {
			return scenario.Scenario{}, fmt.Errorf(
				"-%s: graph family %s takes %s and algorithm %s takes %s",
				name, f.Name, orNone(param.Describe(f.Params)), d.Name, orNone(param.Describe(d.Params)))
		}
	}
	gp, err := parseParams(gparam)
	if err != nil {
		return scenario.Scenario{}, fmt.Errorf("-gparam: %w", err)
	}
	ap, err := parseParams(aparam)
	if err != nil {
		return scenario.Scenario{}, fmt.Errorf("-aparam: %w", err)
	}
	return scenario.Scenario{
		Algo:   d.Name,
		Graph:  graph.Spec{Family: f.Name, Params: merge(pick(f.Params), gp), Seed: seed},
		Params: merge(pick(d.Params), ap),
		Model:  scenario.Model{CapFactor: capf, Workers: workers, Seed: seed},
	}, nil
}

func orNone(desc string) string {
	if desc == "" {
		return "no params"
	}
	return desc
}

// parseParams decodes a "name=value,name=value" list.
func parseParams(list string) (param.Values, error) {
	out := param.Values{}
	for _, item := range splitList(list) {
		name, val, ok := strings.Cut(item, "=")
		if !ok {
			return nil, fmt.Errorf("%q is not name=value", item)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("%q: %w", item, err)
		}
		out[name] = v
	}
	return out, nil
}

// merge overlays b onto a.
func merge(a, b param.Values) param.Values {
	for k, v := range b {
		a[k] = v
	}
	return a
}

func parseSweep(ns, cfs, seeds string) (*scenario.Sweep, error) {
	sw := &scenario.Sweep{}
	var err error
	if sw.N, err = parseInts(ns); err != nil {
		return nil, fmt.Errorf("-sweep-n: %w", err)
	}
	if sw.CapFactor, err = parseInts(cfs); err != nil {
		return nil, fmt.Errorf("-sweep-capfactor: %w", err)
	}
	for _, s := range splitList(seeds) {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("-sweep-seeds: %w", err)
		}
		sw.Seeds = append(sw.Seeds, v)
	}
	if len(sw.N) == 0 && len(sw.CapFactor) == 0 && len(sw.Seeds) == 0 {
		return nil, nil
	}
	return sw, nil
}

func parseInts(list string) ([]int, error) {
	var out []int
	for _, s := range splitList(list) {
		v, err := strconv.Atoi(s)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func splitList(list string) []string {
	var out []string
	for _, s := range strings.Split(list, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

// printSingle renders one run the way nccrun always has: graph, model,
// summary with verification marker, stats.
func printSingle(w io.Writer, rec scenario.Record) {
	if rec.Graph.Desc != "" {
		fmt.Fprintf(w, "graph: %s  (max degree %d, degeneracy %d)\n",
			rec.Graph.Desc, rec.Graph.MaxDegree, rec.Graph.Degeneracy)
		fmt.Fprintf(w, "model: n=%d, capacity=%d msgs/round\n", rec.Graph.N, rec.Capacity)
	}
	if rec.Error != "" {
		return
	}
	fmt.Fprintf(w, "%s (%s)\n", rec.Summary, verdict(rec))
	fmt.Fprintf(w, "stats: %v\n", rec.Stats)
}

// printSweepLine renders one sweep entry compactly.
func printSweepLine(w io.Writer, rec scenario.Record) {
	if rec.Error != "" {
		fmt.Fprintf(w, "%s capfactor=%d seed=%d: error: %s\n",
			rec.Scenario.Graph, rec.Scenario.Model.CapFactor, rec.Scenario.Model.Seed, rec.Error)
		return
	}
	fmt.Fprintf(w, "%s capfactor=%d seed=%d: %s (%s) | %v\n",
		rec.Scenario.Graph, rec.Scenario.Model.CapFactor, rec.Scenario.Model.Seed,
		rec.Summary, verdict(rec), rec.Stats)
}

func verdict(rec scenario.Record) string {
	if rec.Verified {
		return "verified"
	}
	if d := rec.Degradation; d != nil && d.SurvivorsOK {
		return fmt.Sprintf("degraded: %d unfinished, %d down, %.0f%% reachable, survivors consistent",
			d.Unfinished, d.DownAtEnd, 100*d.ReachableFrac)
	}
	return "NOT verified: " + rec.VerifyErr
}

// degradedOK reports a fault-injected run that degraded as designed: the
// survivor verifier accepted the surviving nodes' outputs.
func degradedOK(rec scenario.Record) bool {
	return !rec.Verified && rec.Degradation != nil && rec.Degradation.SurvivorsOK
}

// listScenario prints a scenario's canonical hashes without executing it: the
// sweep-level job hash (the id nccd's result cache, job coalescing, and the
// jobs API key on) and each sweep-expanded run with its own canonical hash.
func listScenario(path string, stdout, stderr io.Writer) int {
	s, err := scenario.Load(path)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if err := s.Validate(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	hash, err := s.Hash()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	name := s.Name
	if name == "" {
		name = s.Algo
	}
	fmt.Fprintf(stdout, "scenario %s\n", name)
	fmt.Fprintf(stdout, "hash %s\n", hash)
	runs := s.Expand()
	fmt.Fprintf(stdout, "runs %d\n", len(runs))
	for i, c := range runs {
		rh, err := c.Hash()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		fmt.Fprintf(stdout, "  run %d: %s capfactor=%d seed=%d hash %s\n",
			i, c.Graph, c.Model.CapFactor, c.Model.Seed, rh)
	}
	return 0
}

func printRegistries(w io.Writer) {
	fmt.Fprintln(w, "algorithms:")
	for _, d := range algo.All() {
		fmt.Fprintf(w, "  %-12s %s\n", d.Name, d.Desc)
		if len(d.Params) > 0 {
			fmt.Fprintf(w, "  %-12s params: %s\n", "", param.Describe(d.Params))
		}
	}
	fmt.Fprintln(w, "graph families:")
	for _, f := range graph.Families() {
		seeded := ""
		if f.Seeded {
			seeded = " [seeded]"
		}
		fmt.Fprintf(w, "  %-12s %s%s\n", f.Name, f.Desc, seeded)
		fmt.Fprintf(w, "  %-12s params: %s\n", "", param.Describe(f.Params))
	}
	fmt.Fprintln(w, "capacity policies:")
	for _, p := range graph.CapacityPolicies() {
		values := ""
		if p.NeedsValues {
			values = " [takes a values list]"
		}
		fmt.Fprintf(w, "  %-12s %s%s\n", p.Name, p.Desc, values)
		if len(p.Params) > 0 {
			fmt.Fprintf(w, "  %-12s params: %s\n", "", param.Describe(p.Params))
		}
	}
	fmt.Fprintln(w, "fault models:")
	for _, m := range faultmodel.All() {
		links := ""
		if m.Links {
			links = " [takes to/from link sets]"
		}
		fmt.Fprintf(w, "  %-12s %s%s\n", m.Name, m.Desc, links)
		if len(m.Params) > 0 {
			fmt.Fprintf(w, "  %-12s params: %s\n", "", param.Describe(m.Params))
		}
	}
}
