// Package scenario is the declarative execution spec shared by the CLIs and
// the benchmark harness: one Scenario names a graph spec, an algorithm with
// parameters, the clique model, optional fault injection, and an optional
// sweep over n / capfactor / seeds / faults. Scenarios decode from JSON
// files or are assembled from CLI flags; runs produce JSON-serializable
// Records (scenario echo + graph info + stats + verification status) so
// sweep results become diffable artifacts.
//
// Fault injection is declarative: a Faults block lists fault-model specs
// ("crash", "churn", "adversarial", ...) that the faultmodel registry
// compiles into a deterministic schedule seeded from the run seed, so a
// faulted run replays byte-identically anywhere — locally, on a cluster
// worker after a redispatch, or out of the result cache. Faulted runs do
// not hard-fail verification; their Records instead carry a degradation
// report (unfinished/down counts, reachable fraction, and a survivor-only
// correctness verdict). Message loss is declared the same way, with the
// "iid-drop" and "link-cut" models; there is no other fault spelling.
package scenario

import (
	"fmt"
	"os"
	"slices"

	"ncc/internal/algo"
	"ncc/internal/blob"
	"ncc/internal/faultmodel"
	"ncc/internal/graph"
	_ "ncc/internal/graphio" // installs the "file" graph-family resolver
	"ncc/internal/kmachine"
	"ncc/internal/ncc"
	"ncc/internal/obs"
	"ncc/internal/param"
)

// Model is the serializable slice of ncc.Config a scenario controls. Zero
// values mean the engine defaults. A send over capacity always panics, as in
// every ncc run.
type Model struct {
	CapFactor int   `json:"capfactor,omitempty"`
	MaxWords  int   `json:"maxwords,omitempty"`
	MaxRounds int   `json:"maxrounds,omitempty"`
	Workers   int   `json:"workers,omitempty"`
	Seed      int64 `json:"seed,omitempty"`
}

// Faults declares fault injection as a list of fault-model blocks, compiled
// by the faultmodel registry against the run seed and the built graph into
// the run's one ncc.FaultPlan. Message loss is the "iid-drop" and "link-cut"
// models; node crashes and churn are the others. Declaring any fault block
// (even one that schedules nothing) switches the engine into
// failure-isolation mode: node programs degrade instead of failing hard, and
// Records carry a degradation report.
type Faults struct {
	Models []faultmodel.Spec `json:"models,omitempty"`
}

// specs returns the block's fault-model spec list (nil for a nil block).
func (f *Faults) specs() []faultmodel.Spec {
	if f == nil {
		return nil
	}
	return f.Models
}

// validate statically checks the block; n > 0 bounds node ids (0 means the
// clique size is not yet known). Errors name the offending field.
func (f *Faults) validate(n int) error {
	for i, sp := range f.Models {
		if err := faultmodel.Validate(sp, n); err != nil {
			return fmt.Errorf("models[%d]: %w", i, err)
		}
	}
	return nil
}

// Sweep declares the axes of a parameter sweep. Every listed n overrides the
// graph spec's "n" parameter; every capfactor overrides the model; every seed
// overrides both the model seed and the graph seed (independent trials);
// every faults entry replaces the scenario's whole fault block (an empty
// entry {} means "this variant runs fault-free"). Empty axes keep the
// scenario's own value. Expansion order is deterministic: n outermost, then
// capfactor, then seeds, then faults.
type Sweep struct {
	N         []int    `json:"n,omitempty"`
	CapFactor []int    `json:"capfactor,omitempty"`
	Seeds     []int64  `json:"seeds,omitempty"`
	Faults    []Faults `json:"faults,omitempty"`
}

// KMachine declares k-machine-model accounting for a run (Appendix A): the
// clique's messages are additionally routed over a complete network of K
// machines with Bandwidth words per directed link per k-machine round, and
// the Record reports how many k-machine rounds the algorithm's traffic would
// have cost. Accounting is a round probe — it never changes the run itself, but
// it is part of the declarative spec (and the canonical hash), because the
// Record it produces differs.
type KMachine struct {
	K         int `json:"k"`
	Bandwidth int `json:"bandwidth,omitempty"` // words per link per round (default 4)
}

// DefaultKMachineBandwidth is the per-link word budget assumed when a
// kmachine block omits it.
const DefaultKMachineBandwidth = 4

// Scenario is one declarative execution spec.
type Scenario struct {
	Name   string       `json:"name,omitempty"`
	Algo   string       `json:"algo"`
	Graph  graph.Spec   `json:"graph"`
	Params param.Values `json:"params,omitempty"`
	Model  Model        `json:"model,omitempty"`
	// Capacities assigns heterogeneous per-node capacities through a
	// registered capacity policy ("uniform", "degree", "file", "explicit").
	// Absent means uniform capacities, the plain NCC model.
	Capacities *graph.CapacitySpec `json:"capacities,omitempty"`
	Faults     *Faults             `json:"faults,omitempty"`
	Sweep      *Sweep              `json:"sweep,omitempty"`
	KMachine   *KMachine           `json:"kmachine,omitempty"`
}

// GraphInfo describes the materialized input graph of one run.
type GraphInfo struct {
	Desc       string `json:"desc"`
	N          int    `json:"n"`
	M          int    `json:"m"`
	MaxDegree  int    `json:"maxDegree"`
	Degeneracy int    `json:"degeneracy"`
}

// Record is the JSON-serializable result of one concrete run: the scenario
// echo (sweep-expanded), the materialized graph, the model capacity, the run
// statistics, the summarizer's digest, and the verification status. A Record
// with a non-empty Error field describes a run that failed outright.
type Record struct {
	Scenario Scenario  `json:"scenario"`
	Graph    GraphInfo `json:"graph"`
	Capacity int       `json:"capacity"`
	// CapMin/CapMax bound the per-node capacities of a heterogeneous run
	// (zero and omitted when the run is uniform, where Capacity is exact).
	CapMin    int                `json:"capMin,omitempty"`
	CapMax    int                `json:"capMax,omitempty"`
	Summary   string             `json:"summary,omitempty"`
	Metrics   map[string]float64 `json:"metrics,omitempty"`
	Stats     ncc.Stats          `json:"stats"`
	KMachine  *kmachine.Result   `json:"kmachine,omitempty"`
	Verified  bool               `json:"verified"`
	VerifyErr string             `json:"verifyError,omitempty"`
	// Degradation reports how a fault-injected run degraded (present exactly
	// when the scenario declared faults and the run itself succeeded).
	Degradation *algo.DegradationReport `json:"degradation,omitempty"`
	Error       string                  `json:"error,omitempty"`
}

// Load reads a Scenario from a JSON file with strict field checking (see
// Decode): unknown fields are rejected with their full path.
func Load(path string) (Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Scenario{}, err
	}
	s, err := Decode(data)
	if err != nil {
		return s, fmt.Errorf("scenario %s: %w", path, err)
	}
	return s, nil
}

// Validate checks the statically checkable parts of a scenario: the algorithm
// and graph family exist and both parameter bags resolve. Usage errors caught
// here are distinguishable from run failures (CLI exit 2 vs 1).
func (s Scenario) Validate() error {
	if _, _, err := algo.Algorithms.Resolve(s.Algo, s.Params); err != nil {
		return err
	}
	f, gp, err := graph.Families.Resolve(s.Graph.Family, s.Graph.Params)
	if err != nil {
		return err
	}
	if f.FromFile {
		if s.Graph.File == "" {
			return fmt.Errorf("graph.file: required for the %s family (the 64-hex content hash printed by nccgraph ingest)", s.Graph.Family)
		}
		if !blob.ValidHash(s.Graph.File) {
			return fmt.Errorf("graph.file: %q is not a 64-hex content hash", s.Graph.File)
		}
	} else if s.Graph.File != "" {
		return fmt.Errorf("graph.file: only valid for the file family (family %s generates its graph)", s.Graph.Family)
	}
	if km := s.KMachine; km != nil {
		if km.K < 1 || km.K > kmachine.MaxMachines {
			return fmt.Errorf("kmachine.k = %d, need 1 <= k <= %d", km.K, kmachine.MaxMachines)
		}
		if km.Bandwidth < 0 {
			return fmt.Errorf("kmachine.bandwidth = %d, need >= 0 (0 means the default %d)", km.Bandwidth, DefaultKMachineBandwidth)
		}
	}
	// Bound fault node ids against the clique size when it is statically
	// known (the resolved graph "n" parameter, unless a sweep overrides n).
	n := 0
	if v, ok := gp["n"]; ok && (s.Sweep == nil || len(s.Sweep.N) == 0) {
		n = int(v)
	}
	if s.Capacities != nil {
		if err := graph.ValidateCapacitySpec(*s.Capacities, n); err != nil {
			return fmt.Errorf("capacities.%w", err)
		}
	}
	if s.Faults != nil {
		if err := s.Faults.validate(n); err != nil {
			return fmt.Errorf("faults.%w", err)
		}
	}
	if s.Sweep != nil {
		if _, hasN := s.Graph.Params["n"]; len(s.Sweep.N) > 0 && !hasN {
			ok := false
			for _, def := range f.Params {
				if def.Name == "n" {
					ok = true
				}
			}
			if !ok {
				return fmt.Errorf("graph family %s has no n parameter to sweep", s.Graph.Family)
			}
		}
		for i := range s.Sweep.Faults {
			if err := s.Sweep.Faults[i].validate(n); err != nil {
				return fmt.Errorf("sweep.faults[%d].%w", i, err)
			}
		}
	}
	return nil
}

// Expand resolves the sweep into concrete scenarios (itself, if there is no
// sweep). The order is deterministic: n outermost, then capfactor, then seeds.
func (s Scenario) Expand() []Scenario {
	if s.Sweep == nil {
		return []Scenario{s}
	}
	sw := *s.Sweep
	var out []Scenario
	forEachInt(sw.N, func(n int, hasN bool) {
		forEachInt(sw.CapFactor, func(cf int, hasCF bool) {
			seeds := sw.Seeds
			hasSeeds := len(seeds) > 0
			if !hasSeeds {
				seeds = []int64{0}
			}
			for _, seed := range seeds {
				faults := sw.Faults
				hasFaults := len(faults) > 0
				if !hasFaults {
					faults = []Faults{{}}
				}
				for fi := range faults {
					c := s
					c.Sweep = nil
					c.Params = s.Params.Clone()
					c.Graph.Params = s.Graph.Params.Clone()
					if hasN {
						c.Graph.Params["n"] = float64(n)
					}
					if hasCF {
						c.Model.CapFactor = cf
					}
					if hasSeeds {
						c.Model.Seed = seed
						c.Graph.Seed = seed
					}
					if hasFaults {
						fb := faults[fi]
						c.Faults = &fb
					}
					out = append(out, c)
				}
			}
		})
	})
	return out
}

// forEachInt visits every value of axis, or a single "unset" marker when the
// axis is empty.
func forEachInt(axis []int, fn func(v int, set bool)) {
	if len(axis) == 0 {
		fn(0, false)
		return
	}
	for _, v := range axis {
		fn(v, true)
	}
}

// config assembles the ncc.Config for a graph of n nodes.
func (m Model) config(n int) ncc.Config {
	return ncc.Config{
		N:         n,
		CapFactor: m.CapFactor,
		MaxWords:  m.MaxWords,
		MaxRounds: m.MaxRounds,
		Workers:   m.Workers,
		Seed:      m.Seed,
	}
}

// RunOpts carries per-run hooks that are not part of the declarative spec
// and therefore never appear in the Record's scenario echo or the canonical
// hash: a cancellation channel wired into the engine's abort path, and a
// worker-count override (the service's scheduler hands each run however many
// workers its global budget can spare; results are bit-identical across
// worker counts, so the override is invisible in the Record).
type RunOpts struct {
	Cancel  <-chan struct{}
	Workers int

	// Probe, if non-nil, receives the engine's per-round telemetry samples
	// (see ncc.RoundProbe). Like the other hooks it never enters the
	// canonical hash; the samples themselves are deterministic, which is what
	// makes serialized traces content-addressable.
	Probe ncc.RoundProbe
}

// RunOne executes one concrete (sweep-free) scenario. The returned error
// covers spec and simulation failures; verification failures are recorded in
// the Record only.
func RunOne(s Scenario) (Record, error) {
	return RunOneWith(s, RunOpts{})
}

// RunOneWith is RunOne with the full set of per-run hooks.
func RunOneWith(s Scenario, opts RunOpts) (Record, error) {
	rec := Record{Scenario: s}
	if s.Sweep != nil {
		return rec, fmt.Errorf("scenario %s: RunOne on an unexpanded sweep", s.Name)
	}
	d, _, err := algo.Algorithms.Resolve(s.Algo, nil)
	if err != nil {
		return rec, err
	}
	g, err := graph.Build(s.Graph)
	if err != nil {
		return rec, err
	}
	deg, _ := graph.Degeneracy(g)
	rec.Graph = GraphInfo{Desc: g.String(), N: g.N(), M: g.M(), MaxDegree: g.MaxDegree(), Degeneracy: deg}
	cfg := s.Model.config(g.N())
	cfg.Probe = opts.Probe
	cfg.Cancel = opts.Cancel
	if opts.Workers != 0 {
		cfg.Workers = opts.Workers
	}
	if s.Capacities != nil {
		caps, err := graph.BuildCapacities(*s.Capacities, g, cfg.Cap())
		if err != nil {
			return rec, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		if caps != nil {
			cfg.NodeCaps = caps
			rec.CapMin, rec.CapMax = slices.Min(caps), slices.Max(caps)
		}
	}
	if specs := s.Faults.specs(); len(specs) > 0 {
		plan, err := faultmodel.Build(specs, faultmodel.Env{G: g, N: g.N(), Seed: cfg.Seed})
		if err != nil {
			return rec, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		cfg.FaultPlan = plan
	}
	var acct *kmachine.Accountant
	if km := s.KMachine; km != nil {
		bw := km.Bandwidth
		if bw == 0 {
			bw = DefaultKMachineBandwidth
		}
		acct, err = kmachine.NewAccountant(km.K, bw, g.N(), s.Model.Seed)
		if err != nil {
			return rec, err
		}
		cfg.Probe = chainProbes(acct.Probe, cfg.Probe)
	}
	rec.Capacity = cfg.Cap()
	res, err := d.Execute(cfg, g, s.Params)
	if err != nil {
		return rec, err
	}
	rec.Summary = res.Summary
	rec.Metrics = res.Metrics
	rec.Stats = res.Stats
	rec.Verified = res.Verified
	rec.VerifyErr = res.VerifyErr
	rec.Degradation = res.Degradation
	if acct != nil {
		kres := acct.Result()
		rec.KMachine = &kres
	}
	return rec, nil
}

// RunTraced executes one concrete scenario with its telemetry recorded into
// col: the collector's probe is attached to the run (chained before any probe
// already in opts), and the completed run is sealed as one trace segment
// (header, round samples, end line). A scenario that fails before its graph
// is built seals nothing — the engine never produced a round; a scenario
// whose execution fails mid-run seals what it traced with the failed flag
// set. One collector threaded through a sweep yields the sweep's whole trace
// in expansion order.
func RunTraced(c Scenario, col *obs.Collector, opts RunOpts) (Record, error) {
	opts.Probe = chainProbes(col.Probe(), opts.Probe)
	rec, err := RunOneWith(c, opts)
	if rec.Capacity > 0 {
		hash, _ := c.Hash() // unhashable scenarios leave the field empty
		col.FinishRun(obs.Header{
			Scenario: hash,
			Algo:     c.Algo,
			Graph:    rec.Graph.Desc,
			N:        rec.Graph.N,
			Seed:     c.Model.Seed,
			Cap:      rec.Capacity,
		}, rec.Stats, err != nil)
	}
	return rec, err
}

// chainProbes returns a probe that calls first, then second; a nil second
// yields first alone.
func chainProbes(first, second ncc.RoundProbe) ncc.RoundProbe {
	if second == nil {
		return first
	}
	return func(s ncc.RoundSample, t []ncc.ShardTiming) {
		first(s, t)
		second(s, t)
	}
}

// Run expands and executes a scenario. Individual run failures do not abort
// the sweep; they are recorded in the Record's Error field so a sweep
// artifact always has one entry per expanded scenario.
func Run(s Scenario) []Record {
	var out []Record
	for _, c := range s.Expand() {
		rec, err := RunOne(c)
		if err != nil {
			rec.Error = err.Error()
		}
		out = append(out, rec)
	}
	return out
}
