package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"ncc/internal/comm"
	"ncc/internal/faultmodel"
	"ncc/internal/graph"
	"ncc/internal/ncc"
	"ncc/internal/obs"
	"ncc/internal/param"
	"ncc/internal/scenario"
)

// scenarioAcc sums the scenario-layer timings of traced RunOneWith calls.
type scenarioAcc struct {
	runs, faultRuns  int64
	graphNs, faultNs int64 // separate graph.Build / faultmodel.Build calls
	runoneNs         int64
	nodeRounds       int64
}

// runScenario runs one scenario op, traced when tr is non-nil.
func runScenario(sc scenario.Scenario, tr *tracer) sample {
	if tr != nil {
		return tr.runScenario(sc)
	}
	t0 := time.Now()
	rec, err := scenario.RunOneWith(sc, scenario.RunOpts{})
	return recordSample(sc, rec, err, msSince(t0))
}

// runScenario times the layers of one scenario run from outside: graph.Build
// and faultmodel.Build with separate calls, then RunOneWith with a probe
// attached, whose first and last rounds split the call into the algorithm's
// set-up, the engine's rounds and the join/verify/summarize tail.
func (t *tracer) runScenario(sc scenario.Scenario) sample {
	req := t.newReq()
	opStart := time.Now()
	g, err := graph.Build(sc.Graph)
	gEnd := time.Now()
	if err != nil {
		return sample{ms: msSince(opStart), fail: fmt.Sprintf("%s: graph: %v", opName(sc), err)}
	}
	fStart, fEnd := gEnd, gEnd
	if sc.Faults != nil {
		c, err := sc.Canonical()
		if err != nil {
			return sample{ms: msSince(opStart), fail: fmt.Sprintf("%s: %v", opName(sc), err)}
		}
		fStart = time.Now()
		_, err = faultmodel.Build(c.Faults.Models, faultmodel.Env{G: g, N: g.N(), Seed: c.Model.Seed})
		fEnd = time.Now()
		if err != nil {
			return sample{ms: msSince(opStart), fail: fmt.Sprintf("%s: faults: %v", opName(sc), err)}
		}
	}
	er := t.startRun(g.N())
	rec, err := scenario.RunOneWith(sc, scenario.RunOpts{Probe: er.probe})
	end := time.Now()
	engStart, engEnd := er.finish(end)
	s := recordSample(sc, rec, err, msSince(opStart))

	graphDur, faultDur := gEnd.Sub(opStart), fEnd.Sub(fStart)
	a := &t.scen
	a.runs++
	a.graphNs += graphDur.Nanoseconds()
	if sc.Faults != nil {
		a.faultRuns++
		a.faultNs += faultDur.Nanoseconds()
	}
	a.runoneNs += end.Sub(er.start).Nanoseconds()
	a.nodeRounds += s.nodeRounds

	nr := map[string]float64{"node_rounds": float64(s.nodeRounds)}
	root := t.add(req, 0, "op", opStart, end, nr)
	t.add(req, root, "graph.build", opStart, gEnd, nil)
	if sc.Faults != nil {
		t.add(req, root, "faultmodel.build", fStart, fEnd, nil)
	}
	l4 := t.add(req, root, "scenario.runone", er.start, end, nr)
	l3 := t.add(req, l4, "algo.execute", er.start.Add(graphDur+faultDur), end, nr)
	t.add(req, l3, "ncc.run", engStart, engEnd, nr)
	return s
}

// scenarioMetrics turns the scenario and engine accumulators into the
// algo.*, graph.*, faultmodel.* and scenario.* metrics.
func (t *tracer) scenarioMetrics() {
	a, e, v := t.scen, t.eng, t.values
	l3Ns := a.runoneNs - a.graphNs - a.faultNs
	v["graph.build_ms"] = ratio(float64(a.graphNs), float64(a.runs)) / 1e6
	v["faultmodel.build_ms"] = ratio(float64(a.faultNs), float64(a.faultRuns)) / 1e6
	v["scenario.runone_ms"] = ratio(float64(a.runoneNs), float64(a.runs)) / 1e6
	v["scenario.l4_over_l3"] = ratio(float64(a.runoneNs), float64(l3Ns))
	v["algo.pre_ms"] = ratio(float64(e.preNs-a.graphNs-a.faultNs), float64(e.runs)) / 1e6
	v["algo.ns_per_node_round"] = ratio(float64(l3Ns), float64(a.nodeRounds))
}

func opName(sc scenario.Scenario) string {
	if sc.Name != "" {
		return fmt.Sprintf("%s(seed %d)", sc.Name, sc.Model.Seed)
	}
	return fmt.Sprintf("%s on %s", sc.Algo, sc.Graph)
}

// recordSample checks one run's Record: no run error, verified on a reliable
// run, survivorsOk on a faulted one.
func recordSample(sc scenario.Scenario, rec scenario.Record, err error, ms float64) sample {
	s := sample{
		ms:         ms,
		rounds:     int64(rec.Stats.Rounds),
		msgs:       rec.Stats.Messages,
		nodeRounds: int64(rec.Graph.N) * int64(rec.Stats.Rounds),
	}
	switch {
	case err != nil:
		s.fail = fmt.Sprintf("%s: %v", opName(sc), err)
	case rec.Error != "":
		s.fail = fmt.Sprintf("%s: %s", opName(sc), rec.Error)
	case sc.Faults != nil:
		if rec.Degradation == nil || !rec.Degradation.SurvivorsOK {
			s.fail = fmt.Sprintf("%s: survivorsOk is false", opName(sc))
		}
	case !rec.Verified:
		s.fail = fmt.Sprintf("%s: verified is false: %s", opName(sc), rec.VerifyErr)
	}
	return s
}

// scenarioInstance runs the seeded scenario sequence gen(0), gen(1), ...
// one after the other. n is the clique size of its calibrations.
type scenarioInstance struct {
	gen func(i int) scenario.Scenario
	n   int
}

// scenarioWorkload builds a workload whose set-up derives the sequence from
// the seed and runs warm, a cheap scenario on the same code paths.
func scenarioWorkload(build func(cfg runConfig) (gen func(int) scenario.Scenario, warm scenario.Scenario, n int, err error)) func(runConfig) (instance, error) {
	return func(cfg runConfig) (instance, error) {
		gen, warm, n, err := build(cfg)
		if err != nil {
			return nil, err
		}
		if s := runScenario(warm, nil); s.fail != "" {
			return nil, fmt.Errorf("warm-up: %s", s.fail)
		}
		return &scenarioInstance{gen: gen, n: n}, nil
	}
}

func (si *scenarioInstance) run(b budget, tr *tracer) passResult {
	var res passResult
	for i := 0; b.more(0, i); i++ {
		s := runScenario(si.gen(i), tr)
		res.samples = append(res.samples, s)
		res.wall += time.Duration(s.ms * 1e6)
		runtime.GC() // between runs, not timed: each run starts from a clean heap
	}
	return res
}

func (si *scenarioInstance) layers(tr *tracer, _ passResult) error {
	tr.engineMetrics()
	tr.scenarioMetrics()
	return calibrate(tr, si.n, []scenario.Scenario{si.gen(0)})
}

func (si *scenarioInstance) close() {}

// calibrate runs the calibrations every traced run shares: the empty-round
// barrier and the collectives at clique size n, and the trace collector's
// cost on the given scenarios.
func calibrate(tr *tracer, n int, obsRuns []scenario.Scenario) error {
	barrier, err := calibrateBarrier(tr, n)
	if err != nil {
		return err
	}
	tr.values["ncc.barrier_ns_per_node_round"] = barrier
	tr.values["algo.over_barrier"] = ratio(tr.values["algo.ns_per_node_round"], barrier)
	if err := calibrateComm(tr, n); err != nil {
		return err
	}
	if len(obsRuns) > 0 {
		return calibrateObs(tr, obsRuns)
	}
	return nil
}

// calibrateBarrier times empty rounds at n nodes: every node only calls
// EndRound. It returns ns per node-round.
func calibrateBarrier(tr *tracer, n int) (float64, error) {
	rounds := max(4, 750_000/n) // about 0.3 s at ~400 ns per node-round
	t0 := time.Now()
	st, err := ncc.Run(ncc.Config{N: n, Seed: 1}, func(ctx *ncc.Context) {
		for r := 0; r < rounds; r++ {
			ctx.EndRound()
		}
	})
	end := time.Now()
	if err != nil {
		return 0, fmt.Errorf("barrier calibration: %w", err)
	}
	if st.Rounds != rounds {
		return 0, fmt.Errorf("barrier calibration: %d rounds, want %d", st.Rounds, rounds)
	}
	nr := float64(n) * float64(rounds)
	tr.add(tr.newReq(), 0, "ncc.barrier", t0, end, map[string]float64{"node_rounds": nr})
	return float64(end.Sub(t0).Nanoseconds()) / nr, nil
}

// calibrateComm times k calls of each typed collective at min(n, 4096) nodes
// in one session, with every node checking its own result.
func calibrateComm(tr *tracer, n int) error {
	n = min(n, 4096)
	k := max(2, min(64, 4096/n))
	// Each program makes k calls and returns how many results were wrong.
	collectives := []struct {
		name    string
		program func(s *comm.Session) int
	}{
		{"aab", func(s *comm.Session) int {
			wrong := 0
			for i := 0; i < k; i++ {
				if v, ok := comm.AggregateAndBroadcast(s, uint64(1), true, comm.Sum); !ok || v != uint64(n) {
					wrong++
				}
			}
			return wrong
		}},
		{"aggregate", func(s *comm.Session) int {
			me := s.Ctx.ID()
			items := []comm.Agg[uint64]{{Group: uint64((me + 3) % n), Target: (me + 3) % n, Val: uint64(me)}}
			wrong := 0
			for i := 0; i < k; i++ {
				got := comm.Aggregate(s, items, comm.Sum, 1)
				if len(got) != 1 || got[0].Group != uint64(me) || got[0].Val != uint64((me-3+n)%n) {
					wrong++
				}
			}
			return wrong
		}},
		{"multicast", func(s *comm.Session) int {
			me := s.Ctx.ID()
			trees := s.SetupTrees([]comm.TreeItem{{Group: uint64((me + 1) % n), Origin: me}})
			wrong := 0
			for i := 0; i < k; i++ {
				got := comm.Multicast(s, trees, true, uint64(me), uint64(i), comm.U64Wire{}, 1)
				if len(got) != 1 || got[0].Group != uint64((me+1)%n) || got[0].Val != uint64(i) {
					wrong++
				}
			}
			return wrong
		}},
	}
	for _, c := range collectives {
		var wrong atomic.Int64
		t0 := time.Now()
		st, err := ncc.Run(ncc.Config{N: n, Seed: 1, Strict: true}, func(ctx *ncc.Context) {
			wrong.Add(int64(c.program(comm.NewSession(ctx))))
		})
		end := time.Now()
		if err != nil {
			return fmt.Errorf("comm %s calibration: %w", c.name, err)
		}
		if w := wrong.Load(); w > 0 {
			return fmt.Errorf("comm %s calibration: %d wrong results", c.name, w)
		}
		tr.add(tr.newReq(), 0, "comm."+c.name, t0, end, map[string]float64{"ops": float64(k), "rounds": float64(st.Rounds)})
		tr.values["comm."+c.name+"_us_per_op"] = float64(end.Sub(t0).Nanoseconds()) / 1e3 / float64(k)
		tr.values["comm."+c.name+"_rounds_per_op"] = float64(st.Rounds) / float64(k)
	}
	return nil
}

// calibrateObs runs each scenario untraced and then through RunTraced, and
// reports the collector's time overhead and trace bytes per round.
func calibrateObs(tr *tracer, runs []scenario.Scenario) error {
	var plainNs, tracedNs, bytes, rounds int64
	for _, sc := range runs {
		t0 := time.Now()
		rec, err := scenario.RunOneWith(sc, scenario.RunOpts{})
		t1 := time.Now()
		if s := recordSample(sc, rec, err, 0); s.fail != "" {
			return fmt.Errorf("obs calibration: %s", s.fail)
		}
		col := &obs.Collector{}
		trec, err := scenario.RunTraced(sc, col, scenario.RunOpts{})
		t2 := time.Now()
		if s := recordSample(sc, trec, err, 0); s.fail != "" {
			return fmt.Errorf("obs calibration: %s", s.fail)
		}
		plainNs += t1.Sub(t0).Nanoseconds()
		tracedNs += t2.Sub(t1).Nanoseconds()
		bytes += int64(len(col.Bytes()))
		rounds += int64(trec.Stats.Rounds)
	}
	tr.values["obs.trace_overhead_frac"] = ratio(float64(tracedNs), float64(plainNs)) - 1
	tr.values["obs.trace_bytes_per_round"] = ratio(float64(bytes), float64(rounds))
	return nil
}

// Scenario workloads.

func mstWorkload(cfg runConfig) (func(int) scenario.Scenario, scenario.Scenario, int, error) {
	n, m := 64.0, 192.0
	if cfg.small {
		n, m = 16, 40
	}
	mst := func(n, m float64, seed int64) scenario.Scenario {
		return scenario.Scenario{
			Algo:  "mst",
			Graph: graph.Spec{Family: "gnm", Params: param.Values{"n": n, "m": m}, Seed: seed},
			Model: scenario.Model{Seed: seed},
		}
	}
	gen := func(i int) scenario.Scenario { return mst(n, m, cfg.seed+int64(i)) }
	return gen, mst(16, 40, 0), int(n), nil
}

func misColoringWorkload(cfg runConfig) (func(int) scenario.Scenario, scenario.Scenario, int, error) {
	n := 2048.0
	if cfg.small {
		n = 64
	}
	op := func(n float64, seed int64, mis bool) scenario.Scenario {
		if mis {
			return scenario.Scenario{
				Algo:  "mis",
				Graph: graph.Spec{Family: "kforest", Params: param.Values{"n": n, "k": 2}, Seed: seed},
				Model: scenario.Model{Seed: seed},
			}
		}
		return scenario.Scenario{
			Algo:  "coloring",
			Graph: graph.Spec{Family: "pa", Params: param.Values{"n": n, "k": 3}, Seed: seed},
			Model: scenario.Model{Seed: seed},
		}
	}
	gen := func(i int) scenario.Scenario { return op(n, cfg.seed+int64(i/2), i%2 == 0) }
	return gen, op(64, 0, false), int(n), nil
}

// faultedScenarios are the repository's fault scenarios, cheapest first so
// the small size runs the first few. The bfs ones are left out: reseeded,
// some seeds end with survivorsOk false (bfs-faulty at 2, 9 and 28 of 1..60,
// bfs-crash-recover at 172, 263 and 349 of 1..400), and the benchmark's
// workloads must not fail. coloring-churn keeps outages and revivals in the
// mix, mst-faulty i.i.d. drops and mst-adversarial permanent kills.
var faultedScenarios = []string{"coloring-churn", "mst-faulty", "mst-adversarial"}

// faultedSeeds is the number of fault seeds the workload cycles through. Each
// scenario of faultedScenarios ends with survivorsOk true at every seed of
// 1..faultedSeeds; beyond them no seed has been checked.
const faultedSeeds = 400

// faultedSeed is the workload seed plus k, wrapped into 1..faultedSeeds.
func faultedSeed(seed int64, k int) int64 {
	return (seed%faultedSeeds+int64(k%faultedSeeds)-1+faultedSeeds)%faultedSeeds + 1
}

func faultedWorkload(cfg runConfig) (func(int) scenario.Scenario, scenario.Scenario, int, error) {
	base := make([]scenario.Scenario, len(faultedScenarios))
	for i, name := range faultedScenarios {
		s, err := scenario.Load(filepath.Join(cfg.root, "scenarios", name+".json"))
		if err != nil {
			return nil, scenario.Scenario{}, 0, err
		}
		base[i] = s
	}
	gen := func(i int) scenario.Scenario {
		s := base[i%len(base)]
		s.Model.Seed = faultedSeed(cfg.seed, i/len(base))
		s.Graph.Seed = s.Model.Seed
		return s
	}
	return gen, base[0], 64, nil
}

// denseInstance is the raw-engine workload: every node sends Cap() words to
// u+1..u+cap each round, so every node is active and every inbox is full.
type denseInstance struct {
	n, rounds int
	salt      uint64

	// Traced runs only: Σ ncc.Run time and node-rounds.
	runNs, nodeRounds int64
}

func setupDense(cfg runConfig) (instance, error) {
	d := &denseInstance{n: 65536, rounds: 6, salt: uint64(cfg.seed)}
	if cfg.small {
		d.n = 1024
	}
	warm := *d
	warm.rounds = 1
	if s := warm.op(nil); s.fail != "" {
		return nil, fmt.Errorf("warm-up: %s", s.fail)
	}
	return d, nil
}

// op runs the dense program once. Each node checks its inbox against the
// closed form: cap messages whose words sum to cap(cap+1)/2 + cap*salt.
func (d *denseInstance) op(tr *tracer) sample {
	var bad atomic.Int64
	cfg := ncc.Config{N: d.n, Seed: int64(d.salt), CapFactor: 1}
	var er *engineRun
	var req int64
	if tr != nil {
		req = tr.newReq()
		er = tr.startRun(d.n)
		cfg.Probe = er.probe
	}
	program := func(ctx *ncc.Context) {
		c := ctx.Cap()
		want := uint64(c*(c+1)/2) + uint64(c)*d.salt
		for r := 0; r < d.rounds; r++ {
			for k := 1; k <= c; k++ {
				ctx.SendWord((ctx.ID()+k)%ctx.N(), ncc.Word(uint64(k)+d.salt))
			}
			in := ctx.EndRound()
			var sum uint64
			for i := range in {
				w, _ := in[i].AsWord()
				sum += uint64(w)
			}
			if len(in) != c || sum != want {
				bad.Add(1)
			}
		}
	}
	t0 := time.Now()
	st, err := ncc.Run(cfg, program)
	end := time.Now()
	s := sample{ms: float64(end.Sub(t0).Nanoseconds()) / 1e6, rounds: int64(st.Rounds), msgs: st.Messages, nodeRounds: int64(d.n) * int64(st.Rounds)}
	wantMsgs := int64(d.n) * int64(cfg.Cap()) * int64(d.rounds)
	switch {
	case err != nil:
		s.fail = fmt.Sprintf("dense n=%d: %v", d.n, err)
	case bad.Load() > 0:
		s.fail = fmt.Sprintf("dense n=%d: %d node-rounds with a wrong inbox", d.n, bad.Load())
	case st.Rounds != d.rounds || st.Messages != wantMsgs:
		s.fail = fmt.Sprintf("dense n=%d: %d rounds %d msgs, want %d and %d", d.n, st.Rounds, st.Messages, d.rounds, wantMsgs)
	}
	if tr != nil {
		engStart, engEnd := er.finish(end)
		nr := map[string]float64{"node_rounds": float64(s.nodeRounds)}
		root := tr.add(req, 0, "op", t0, end, nr)
		l3 := tr.add(req, root, "algo.execute", t0, end, nr)
		tr.add(req, l3, "ncc.run", engStart, engEnd, nr)
		d.runNs += end.Sub(t0).Nanoseconds()
		d.nodeRounds += s.nodeRounds
	}
	return s
}

func (d *denseInstance) run(b budget, tr *tracer) passResult {
	var res passResult
	for i := 0; b.more(0, i); i++ {
		s := d.op(tr)
		res.samples = append(res.samples, s)
		res.wall += time.Duration(s.ms * 1e6)
		runtime.GC() // between runs, not timed: each run starts from a clean heap
	}
	return res
}

func (d *denseInstance) layers(tr *tracer, _ passResult) error {
	tr.engineMetrics()
	// The raw engine has no graph, fault or scenario layer: the whole
	// ncc.Run call is the program's time.
	tr.values["algo.pre_ms"] = ratio(float64(tr.eng.preNs), float64(tr.eng.runs)) / 1e6
	tr.values["algo.ns_per_node_round"] = ratio(float64(d.runNs), float64(d.nodeRounds))
	return calibrate(tr, d.n, nil)
}

func (d *denseInstance) close() {}
