// Package algo is the algorithm registry: every NCC algorithm registers a
// typed descriptor — name, declared parameters, per-node program, built-in
// verifier and result summarizer — and the CLIs, the scenario runner and the
// benchmarks resolve algorithms exclusively through it. Registering an
// algorithm here makes it runnable, sweepable and verifiable everywhere at
// once; there is no other dispatch path.
package algo

import (
	"errors"
	"fmt"

	"ncc/internal/comm"
	"ncc/internal/graph"
	"ncc/internal/ncc"
	"ncc/internal/param"
)

// Input bundles everything a run needs beyond the clique configuration: the
// input graph, the resolved algorithm parameters, the run seed, and any
// derived inputs a Prepare hook materializes (currently edge weights).
type Input struct {
	G      *graph.Graph
	Params param.Values
	Seed   int64

	// Weights is set by weighted algorithms' Prepare hooks (MST derives it
	// from the maxw parameter and Seed+1) and read by their programs.
	Weights *graph.Weighted
}

// Summary is a summarizer's digest of the per-node outputs: a one-line human
// text (without a verification marker — presenters append that) plus named
// machine-readable metrics for tables and JSON records.
type Summary struct {
	Text    string
	Metrics map[string]float64
}

// Algorithm is a typed algorithm descriptor. T is the per-node output type.
type Algorithm[T any] struct {
	Name string
	Desc string
	// Params declares the accepted parameters (may be empty).
	Params []param.Def
	// Prepare, if non-nil, validates parameters against the graph and derives
	// shared inputs (e.g. edge weights) before the clique spins up.
	Prepare func(in *Input) error
	// Node is the SPMD per-node program, run once per node against a fresh
	// comm.Session.
	Node func(s *comm.Session, in *Input) T
	// Verify, if non-nil, checks the collected outputs against a sequential
	// reference; a non-nil error marks the run unverified (it does not abort).
	Verify func(in *Input, outs []T) error
	// VerifySurvivors, if non-nil, checks a degraded run's outputs restricted
	// to the alive nodes (alive[u] is false for nodes that crashed, never
	// finished, or ended out of service — their outs entries are zero values
	// and must not be trusted). It asserts the fault-tolerant contract: the
	// survivors' outputs are mutually consistent even though global properties
	// (spanning, maximality) may have been lost with the dead nodes.
	VerifySurvivors func(in *Input, outs []T, alive []bool) error
	// Summarize, if non-nil, digests the collected outputs.
	Summarize func(in *Input, outs []T) Summary
}

// DegradationReport quantifies how a faulted run degraded instead of failing:
// how much of the clique survived, how much of the graph the survivors still
// cover, and whether the surviving outputs are consistent. It is attached to
// every Result whose run had fault injection enabled, degraded or not.
type DegradationReport struct {
	// Unfinished and DownAtEnd count the nodes of Stats' same-named sets.
	Unfinished int `json:"unfinished"`
	DownAtEnd  int `json:"downAtEnd"`
	// NodeFailures counts node programs retired by failure isolation.
	NodeFailures int64 `json:"nodeFailures,omitempty"`
	// Partial marks a run that hit the round limit under faults: treated as
	// a degraded completion (the outputs collected so far), not a failure.
	Partial bool `json:"partial,omitempty"`
	// ReachableFrac is the fraction of all nodes in the largest connected
	// component of the subgraph induced by the alive nodes — how much of the
	// input graph the survivors can still jointly compute on.
	ReachableFrac float64 `json:"reachableFrac"`
	// SurvivorsOK reports whether the survivor verifier accepted the alive
	// nodes' outputs (the full verifier's verdict when the run did not
	// degrade and no survivor verifier is registered).
	SurvivorsOK bool   `json:"survivorsOk"`
	Detail      string `json:"detail,omitempty"`
}

// Result is what a run produces besides the raw outputs: statistics,
// verification status and the summarizer's digest. It serializes to JSON.
type Result struct {
	Algo        string             `json:"algo"`
	Summary     string             `json:"summary,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
	Stats       ncc.Stats          `json:"stats"`
	Verified    bool               `json:"verified"`
	VerifyErr   string             `json:"verifyError,omitempty"`
	Degradation *DegradationReport `json:"degradation,omitempty"`
}

// Run executes one typed algorithm against a fresh simulation of cfg (whose N
// is forced to g.N()) and returns the result plus the raw per-node outputs.
// Failures of the simulation itself (config errors, round-limit aborts on a
// reliable network) return an error; verification failures only clear
// Result.Verified.
//
// Under fault injection (a FaultPlan in cfg) the contract shifts from
// fail-hard to degrade: a round-limit abort is treated as a partial
// completion, a run with unfinished nodes skips the full verifier and
// summarizer (dead nodes' outputs are zero values the hooks were never
// written to tolerate), and every faulted Result carries a DegradationReport
// with the surviving-component size and the survivor verifier's verdict.
func Run[T any](a Algorithm[T], cfg ncc.Config, g *graph.Graph, p param.Values) (*Result, []T, error) {
	vals, err := param.Resolve(p, a.Params)
	if err != nil {
		return nil, nil, fmt.Errorf("algorithm %s: %w", a.Name, err)
	}
	cfg.N = g.N()
	in := &Input{G: g, Params: vals, Seed: cfg.Seed}
	if a.Prepare != nil {
		if err := a.Prepare(in); err != nil {
			return nil, nil, fmt.Errorf("algorithm %s: %w", a.Name, err)
		}
	}
	outs, st, err := ncc.Collect(cfg, func(ctx *ncc.Context) T {
		return a.Node(comm.NewSession(ctx), in)
	})
	partial := false
	if err != nil {
		if cfg.FaultPlan == nil || !errors.Is(err, ncc.ErrMaxRounds) {
			return nil, nil, err
		}
		partial = true // collected outputs are best-effort; degrade, don't fail
	}
	res := &Result{Algo: a.Name, Stats: st, Verified: true}
	degraded := partial || len(st.Unfinished) > 0
	if degraded {
		res.Verified = false
		res.VerifyErr = fmt.Sprintf("degraded run: %d unfinished nodes, %d down at end (partial=%v)",
			len(st.Unfinished), len(st.DownAtEnd), partial)
	} else {
		if a.Verify != nil {
			if verr := a.Verify(in, outs); verr != nil {
				res.Verified = false
				res.VerifyErr = verr.Error()
			}
		}
		if a.Summarize != nil {
			s := a.Summarize(in, outs)
			res.Summary = s.Text
			res.Metrics = s.Metrics
		}
	}
	if cfg.FaultPlan != nil {
		res.Degradation = degradation(a, in, outs, st, partial, res.Verified, !degraded && a.Verify != nil)
	}
	return res, outs, nil
}

// degradation assembles the DegradationReport for a faulted run.
func degradation[T any](a Algorithm[T], in *Input, outs []T, st ncc.Stats, partial, verified, fullRan bool) *DegradationReport {
	n := in.G.N()
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	for _, id := range st.Unfinished {
		alive[id] = false
	}
	for _, id := range st.DownAtEnd {
		alive[id] = false
	}
	rep := &DegradationReport{
		Unfinished:    len(st.Unfinished),
		DownAtEnd:     len(st.DownAtEnd),
		NodeFailures:  st.NodeFailures,
		Partial:       partial,
		ReachableFrac: reachableFrac(in.G, alive),
	}
	switch {
	case a.VerifySurvivors != nil:
		if err := a.VerifySurvivors(in, outs, alive); err != nil {
			rep.Detail = err.Error()
		} else {
			rep.SurvivorsOK = true
		}
	case fullRan:
		// The run did not degrade, so the full verifier's verdict covers the
		// (complete) survivor set.
		rep.SurvivorsOK = verified
	default:
		rep.Detail = "no survivor verifier registered"
	}
	return rep
}

// reachableFrac returns |largest connected component of the alive-induced
// subgraph| / n.
func reachableFrac(g *graph.Graph, alive []bool) float64 {
	n := g.N()
	if n == 0 {
		return 0
	}
	seen := make([]bool, n)
	best := 0
	var stack []int
	for s := 0; s < n; s++ {
		if seen[s] || !alive[s] {
			continue
		}
		seen[s] = true
		stack = append(stack[:0], s)
		size := 0
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			size++
			for _, v32 := range g.Neighbors(u) {
				v := int(v32)
				if alive[v] && !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		best = max(best, size)
	}
	return float64(best) / float64(n)
}

// Descriptor is the type-erased registry entry for one algorithm.
type Descriptor struct {
	Name   string
	Desc   string
	Params []param.Def
	run    func(cfg ncc.Config, g *graph.Graph, p param.Values) (*Result, error)
}

// Execute runs the algorithm on g under cfg with parameter bag p.
func (d Descriptor) Execute(cfg ncc.Config, g *graph.Graph, p param.Values) (*Result, error) {
	return d.run(cfg, g, p)
}

// Algorithms is the algorithm registry; Register fills it.
var Algorithms = param.NewRegistry("algorithm", func(d Descriptor) (string, []param.Def) {
	return d.Name, d.Params
})

// Register adds a typed algorithm to the registry. An algorithm without a
// node program is a programming error.
func Register[T any](a Algorithm[T]) {
	if a.Node == nil {
		panic(fmt.Sprintf("algo: algorithm %q has no node program", a.Name))
	}
	Algorithms.Register(Descriptor{
		Name:   a.Name,
		Desc:   a.Desc,
		Params: a.Params,
		run: func(cfg ncc.Config, g *graph.Graph, p param.Values) (*Result, error) {
			res, _, err := Run(a, cfg, g, p)
			return res, err
		},
	})
}

// MustGet looks up an algorithm whose name is fixed at compile time.
func MustGet(name string) Descriptor {
	d, ok := Algorithms.Get(name)
	if !ok {
		panic(fmt.Sprintf("algo: unknown algorithm %q", name))
	}
	return d
}
