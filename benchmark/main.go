// Command benchmark is the repository's end-to-end benchmark: six workloads
// that stress the stack from the engine's round barrier up to an nccd
// cluster, each checked for correct output. See README.md. From the
// repository root (benchmark/run.sh builds it and runs it the same way):
//
//	ncc-benchmark -seed 1                          # all workloads, end-to-end metrics
//	ncc-benchmark -seed 1 -traced -spans s.ndjson  # per-layer metrics and spans
//	ncc-benchmark -seed 1 -repeat 3                # medians, quartiles, spread flags
//	ncc-benchmark -summarize s.ndjson              # per-layer self time from spans
//	ncc-benchmark -workload mst-n64 -seed 2 -seconds 15 -trace 0
//
// Without -workload the program runs every workload in a child process of
// its own (the same binary re-executed), so peak RSS and GC state of one
// workload never leak into another.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"time"
)

var workloads = []workload{
	{
		name: "mst-n64", clients: 1, small: 2, setup: scenarioWorkload(mstWorkload),
		why: "mst on gnm(64,192), seeds S, S+1, ...: many rounds with few active nodes, so the barrier's per-round and per-node cost dominates",
	},
	{
		name: "mis-coloring-n2048", clients: 1, small: 2, setup: scenarioWorkload(misColoringWorkload),
		why: "mis on kforest(2048,2) and coloring on pa(2048,3): 2048 goroutines and collective-heavy phases, per-node and verification costs at size",
	},
	{
		name: "engine-dense-n65536", clients: 1, small: 2, setup: setupDense,
		why: "raw ncc.Run, n=65536, every node sends Cap() words each of 6 rounds: delivery and arenas, with no idle node for an active-set change to skip",
	},
	{
		name: "faulted-mix", clients: 1, small: 2, setup: scenarioWorkload(faultedWorkload),
		why: "three fault scenarios of scenarios/ reseeded: liveness, failure isolation, drop paths and survivor verification, which no other workload runs",
	},
	{
		name: "nccd-mix", clients: 2, small: 10, setup: setupNccd,
		why: "one in-process nccd, 2 closed-loop clients, small jobs, ~60% distinct misses that write the disk cache and ~40% memory-cache hits",
	},
	{
		name: "cluster-mix", clients: 2, small: 10, setup: setupCluster,
		why: "the nccd-mix sequence through a coordinator and 2 joined workers: dispatch and proxy cost on top of one nccd",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name      = flag.String("workload", "", "run only this workload, in this process")
		seed      = flag.Int64("seed", 1, "workload seed; seed 2 is held out for claims")
		seconds   = flag.Float64("seconds", 15, "length of one measured pass")
		trace     = flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
		traced    = flag.Bool("traced", false, "same as -trace 1")
		spans     = flag.String("spans", "", "traced runs append their spans to this NDJSON file")
		repeat    = flag.Int("repeat", 1, "run each workload this many times, each in a fresh child")
		summarize = flag.String("summarize", "", "print the per-layer self-time table of a spans file and exit")
		root      = flag.String("root", ".", "repository root holding scenarios/ and campaigns/")
	)
	flag.Parse()
	if *summarize != "" {
		if err := summarizeFile(os.Stdout, *summarize); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		return
	}
	if *traced {
		*trace = 1
	}
	if (*trace != 0 && *trace != 1) || *repeat < 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "error: need -trace 0|1, -repeat >= 1, -seconds > 0")
		os.Exit(2)
	}
	opts := runOpts{
		cfg:     runConfig{seed: *seed, root: *root},
		seconds: *seconds,
		traced:  *trace == 1,
		spans:   *spans,
	}
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "error: unknown workload %q\n", *name)
			os.Exit(2)
		}
		fmt.Println(envStamp())
		res, err := runWorkload(os.Stdout, w, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		printResult(os.Stdout, res)
		if !res.Correct {
			os.Exit(1)
		}
		return
	}
	if err := runAll(os.Stdout, opts, *repeat); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

type runOpts struct {
	cfg     runConfig
	seconds float64
	traced  bool
	spans   string
}

func printResult(w io.Writer, res result) {
	line, err := json.Marshal(res)
	if err != nil {
		panic(err) // plain structs of numbers always marshal
	}
	fmt.Fprintf(w, "%s\n", line)
}

// runWorkload runs one workload in this process and returns its result. An
// untraced run sets up seven times (setup_s is the median) and measures one
// pass on the last set-up. A traced run measures an untraced pass, sets up afresh, replays the
// same operations traced, then runs the workload's calibrations.
func runWorkload(out io.Writer, w workload, o runOpts) (result, error) {
	fmt.Fprintf(out, "workload %s seed=%d seconds=%g trace=%v size=%s\n", w.name, o.cfg.seed, o.seconds, o.traced, sizeName(o.cfg.small))
	if !o.traced {
		return runMeasured(out, w, o)
	}
	return runTraced(out, w, o)
}

// passBudget starts the clock of a measured pass: -seconds from now, or a
// fixed number of operations per client at the small size.
func passBudget(w workload, o runOpts) budget {
	if o.cfg.small {
		limits := make([]int, w.clients)
		for i := range limits {
			limits[i] = w.small
		}
		return budget{limits: limits}
	}
	return budget{deadline: time.Now().Add(time.Duration(o.seconds * float64(time.Second)))}
}

func sizeName(small bool) string {
	if small {
		return "small"
	}
	return "full"
}

func runMeasured(out io.Writer, w workload, o runOpts) (result, error) {
	setups := 7
	if o.cfg.small {
		setups = 1
	}
	var setupS []float64
	var inst instance
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		next, err := w.setup(o.cfg)
		if err != nil {
			if inst != nil {
				inst.close()
			}
			return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if inst != nil {
			inst.close()
		}
		inst = next
		runtime.GC() // not timed: the pass, like every operation, starts from a clean heap
	}
	rt0 := readRuntime()
	res := inst.run(passBudget(w, o), nil)
	rt1 := readRuntime()
	inst.close()
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}

	rounds, msgs, _ := res.totals()
	values := map[string]float64{
		"setup_s":           quantile(setupS, 0.5),
		"us_per_round":      usPerRound(res.samples),
		"alloc_b_per_round": ratio(float64(rt1.allocBytes-rt0.allocBytes), float64(rounds)),
		"peak_rss_mb":       rss,
	}
	var hits int
	for _, s := range res.samples {
		if s.hit {
			hits++
		}
	}
	fmt.Fprintf(out, "samples: setup_s=%d ops=%d hits=%d rounds=%d msgs=%d\n", len(setupS), len(res.samples), hits, rounds, msgs)
	return finish(out, w, res.failures(), len(res.samples), values, false), nil
}

func runTraced(out io.Writer, w workload, o runOpts) (result, error) {
	inst, err := w.setup(o.cfg)
	if err != nil {
		return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	rt0 := readRuntime()
	plain := inst.run(passBudget(w, o), nil)
	rt1 := readRuntime()
	inst.close()

	// The traced pass replays exactly the untraced pass's operations on a
	// fresh set-up, so caches start as cold as they did.
	if inst, err = w.setup(o.cfg); err != nil {
		return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	tr := newTracer(w.name)
	traced := inst.run(budget{limits: plain.perClient(w.clients)}, tr)
	layerErr := inst.layers(tr, traced)
	inst.close()

	_, plainMsgs, _ := plain.totals()
	tr.runtimeMetrics(rt0, rt1, plainMsgs)
	rounds, msgs, _ := traced.totals()
	tr.values["sim_rounds"] = float64(rounds)
	tr.values["sim_msgs"] = float64(msgs)
	tr.values["bench.trace_overhead_frac"] = ratio(float64(traced.wall), float64(plain.wall)) - 1
	fmt.Fprintf(out, "samples: ops=%d traced_ops=%d spans=%d\n", len(plain.samples), len(traced.samples), len(tr.spans))

	fails := append(plain.failures(), traced.failures()...)
	if layerErr != nil {
		fails = append(fails, layerErr.Error())
	}
	if o.spans != "" {
		if err := appendSpans(o.spans, tr.spans); err != nil {
			return result{}, err
		}
	}
	return finish(out, w, fails, len(plain.samples)+len(traced.samples), tr.values, true), nil
}

// finish prints the metric table and assembles the result. Every metric of
// the set is present; a layer the workload never reaches reads 0.
func finish(out io.Writer, w workload, fails []string, attempted int, values map[string]float64, layer bool) result {
	res := result{Attempted: attempted, Failed: len(fails), Metrics: map[string]metricValue{}}
	res.Correct = len(fails) == 0
	for _, d := range defsFor(layer) {
		v := values[d.Name]
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		if layer {
			fmt.Fprintf(out, "  %-34s %14.6g %-5s moves %s\n", d.Name, v, d.Unit, d.Moves)
		} else {
			fmt.Fprintf(out, "  %-34s %14.6g %s\n", d.Name, v, d.Unit)
		}
	}
	for i, f := range fails {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "%s: ... %d more failures\n", w.name, len(fails)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "%s: check failed: %s\n", w.name, f)
	}
	return res
}

// commit is the VCS revision the binary was built from, or "unknown".
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// runAll runs every workload repeat times, each run in a child process,
// forwarding the children's output, then prints the median and quartiles of
// every metric and flags an end-to-end spread wider than its bound.
func runAll(out io.Writer, o runOpts, repeat int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if o.spans != "" {
		if err := os.WriteFile(o.spans, nil, 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintln(out, envStamp())
	total := result{Correct: true, Metrics: map[string]metricValue{}}
	type series struct {
		workload string
		def      metricDef
		values   []float64
	}
	var table []*series
	for _, w := range workloads {
		byName := map[string]*series{}
		for _, d := range defsFor(o.traced) {
			s := &series{workload: w.name, def: d}
			byName[d.Name] = s
			table = append(table, s)
		}
		for rep := 0; rep < repeat; rep++ {
			args := []string{
				"-workload", w.name, "-seed", strconv.FormatInt(o.cfg.seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
				"-trace", strconv.Itoa(boolInt(o.traced)), "-root", o.cfg.root,
			}
			if o.spans != "" {
				args = append(args, "-spans", o.spans)
			}
			res, err := runChild(out, self, args)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
				total.Correct = false
				total.Failed++
				total.Attempted++
				continue
			}
			total.Correct = total.Correct && res.Correct
			total.Attempted += res.Attempted
			total.Failed += res.Failed
			for name, mv := range res.Metrics {
				if s, ok := byName[name]; ok {
					s.values = append(s.values, mv.Value)
				}
			}
		}
	}

	fmt.Fprintf(out, "\n%-20s %-34s %12s %12s %12s %7s\n", "workload", "metric", "median", "q1", "q3", "spread")
	for _, s := range table {
		if len(s.values) == 0 {
			continue
		}
		q1, med, q3 := quartiles(s.values)
		spread := ratio(q3-q1, med)
		flag := ""
		if !s.def.Layer && len(s.values) > 1 && spread > s.def.Bound {
			flag = fmt.Sprintf("  SPREAD > bound %.2f: lengthen the pass", s.def.Bound)
		}
		fmt.Fprintf(out, "%-20s %-34s %12.6g %12.6g %12.6g %6.1f%% %s%s\n", s.workload, s.def.Name, med, q1, q3, 100*spread, s.def.Unit, flag)
		total.Metrics[s.workload+"/"+s.def.Name] = metricValue{Value: med, Unit: s.def.Unit}
	}
	printResult(out, total)
	if !total.Correct {
		return fmt.Errorf("%d of %d operations failed a check", total.Failed, total.Attempted)
	}
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runChild runs one child, forwards its output but the result line, and
// parses the result line.
func runChild(out io.Writer, self string, args []string) (result, error) {
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var lines []string
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) == 0 {
		return result{}, fmt.Errorf("child printed nothing: %v", runErr)
	}
	for _, l := range lines[:len(lines)-1] {
		fmt.Fprintln(out, l)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		fmt.Fprintln(out, lines[len(lines)-1])
		return result{}, fmt.Errorf("child result: %v (exit: %v)", err, runErr)
	}
	if runErr != nil && res.Correct {
		return result{}, fmt.Errorf("child: %v", runErr)
	}
	return res, nil
}

// quartiles returns the quartiles the way Python's statistics.quantiles(xs,
// n=4) computes them (the exclusive method), so a repeat agrees with a
// spread computed from the printed values. A single value is all three.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := slices.Clone(xs)
	slices.Sort(d)
	n := len(d)
	if n == 1 {
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
