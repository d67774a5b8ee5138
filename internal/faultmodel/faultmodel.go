// Package faultmodel is the fault-model registry: it compiles declarative
// fault specifications (model name + parameter bag, as written in scenario
// JSON) into deterministic, seeded Schedules the ncc engine executes. A
// Schedule is an ncc.FaultPlan holding every fault a scenario declares — an
// i.i.d. message-drop probability, link cuts (a start round plus to/from
// node sets), and node-liveness transitions — so one scenario block can
// combine stochastic loss, targeted link cuts, and node crash/churn
// schedules.
//
// Every random decision a model makes is drawn from a PCG seeded by the run
// seed, the model name, and the spec's position, never from global state:
// rebuilding the same specs for the same Env yields a byte-identical
// Schedule, which is what keeps cluster re-dispatch and result-cache replay
// bit-for-bit reproducible under faults.
package faultmodel

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"

	"ncc/internal/graph"
	"ncc/internal/ncc"
	"ncc/internal/param"
)

// Spec is one declarative fault block as it appears in a scenario file:
// a registered model name, its parameter bag, and — for link-oriented models
// only — explicit To/From node sets.
type Spec struct {
	Model  string       `json:"model"`
	Params param.Values `json:"params,omitempty"`
	To     []int        `json:"to,omitempty"`
	From   []int        `json:"from,omitempty"`
}

// Env is what a model may consult when compiling: the built input graph
// (nil when compiling before graph construction — models that need it must
// error), the clique size, and the run seed all randomness derives from.
type Env struct {
	G    *graph.Graph
	N    int
	Seed int64
}

// Model describes one registered fault model.
type Model struct {
	Name string
	Desc string
	// Params declares the accepted parameters (defaults applied by Build).
	Params []param.Def
	// Links marks models that consume the Spec's To/From node sets; Build
	// rejects link sets handed to models that do not.
	Links bool
	// Compile turns a resolved spec into a Schedule. rng is pre-seeded
	// deterministically from (Env.Seed, model name, spec index); models must
	// draw all randomness from it.
	Compile func(spec Spec, p param.Values, env Env, rng *rand.Rand) (*Schedule, error)
}

// Event is one scheduled node-liveness transition batch.
type Event struct {
	Round int
	Down  []ncc.Outage
	Up    []ncc.Revival
}

// linkCut is one link cut from round start on. Its node sets are cumulative
// within a Schedule: each entry also holds every earlier-starting cut.
type linkCut struct {
	start int
	ncc.LinkCut
}

// Schedule is a compiled, merged fault schedule; it implements ncc.FaultPlan.
// The zero Schedule is a valid "no faults" plan (attaching it still switches
// the engine to failure-isolation mode).
type Schedule struct {
	drop   float64   // i.i.d. per-message drop probability
	cuts   []linkCut // sorted by start, cumulative
	events []Event   // sorted by Round, one entry per distinct round
}

// Loss implements ncc.FaultPlan: the drop probability, and the union of the
// link cuts active at round (those that start at or before it).
func (s *Schedule) Loss(round int) (float64, ncc.LinkCut) {
	i := sort.Search(len(s.cuts), func(i int) bool { return s.cuts[i].start > round })
	if i == 0 {
		return s.drop, ncc.LinkCut{}
	}
	return s.drop, s.cuts[i-1].LinkCut
}

// Transitions implements ncc.FaultPlan by binary search over the sorted
// event list. It is a pure function of the schedule and the round.
func (s *Schedule) Transitions(round int) ([]ncc.Outage, []ncc.Revival) {
	i, ok := slices.BinarySearchFunc(s.events, round, func(e Event, r int) int { return e.Round - r })
	if !ok {
		return nil, nil
	}
	return s.events[i].Down, s.events[i].Up
}

// Events returns the schedule's liveness transitions, sorted by round. The
// slice is shared; callers must not mutate it.
func (s *Schedule) Events() []Event { return s.events }

// normalize sorts events by round and coalesces same-round entries, keeping
// append order within a round (outage-before-revival ordering inside one
// round is the engine's concern, not the schedule's). It also sorts the link
// cuts by start and folds every cut into the later-starting ones, so Loss
// answers a round with one search.
func (s *Schedule) normalize() {
	sort.SliceStable(s.cuts, func(i, j int) bool { return s.cuts[i].start < s.cuts[j].start })
	for i := 1; i < len(s.cuts); i++ {
		c, prev := &s.cuts[i], &s.cuts[i-1]
		c.To = union(c.To, prev.To)
		c.From = union(c.From, prev.From)
	}
	sort.SliceStable(s.events, func(i, j int) bool { return s.events[i].Round < s.events[j].Round })
	out := s.events[:0]
	for _, e := range s.events {
		if n := len(out); n > 0 && out[n-1].Round == e.Round {
			out[n-1].Down = append(out[n-1].Down, e.Down...)
			out[n-1].Up = append(out[n-1].Up, e.Up...)
			continue
		}
		out = append(out, e)
	}
	s.events = out
}

// union ORs node set b into a (either may be nil, meaning empty); a is
// updated in place, b is never aliased.
func union(a, b []bool) []bool {
	if b == nil {
		return a
	}
	if a == nil {
		return slices.Clone(b)
	}
	for v, in := range b {
		a[v] = a[v] || in
	}
	return a
}

// merge folds b into a: drop probabilities compose as independent losses,
// link cuts OR together (a message survives only if no cut drops it), and
// event lists concatenate then normalize.
func merge(a, b *Schedule) *Schedule {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	a.drop = 1 - (1-a.drop)*(1-b.drop)
	a.cuts = append(a.cuts, b.cuts...)
	a.events = append(a.events, b.events...)
	a.normalize()
	return a
}

var registry = map[string]Model{}

// Register adds a fault model to the registry; duplicate or incomplete
// registrations are programming errors.
func Register(m Model) {
	if m.Name == "" || m.Compile == nil {
		panic("faultmodel: Register needs a name and a compile function")
	}
	if _, dup := registry[m.Name]; dup {
		panic(fmt.Sprintf("faultmodel: model %q registered twice", m.Name))
	}
	registry[m.Name] = m
}

// Get looks up a registered fault model.
func Get(name string) (Model, bool) {
	m, ok := registry[name]
	return m, ok
}

// Names lists registered models in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// All returns every registered model, ordered by name.
func All() []Model {
	out := make([]Model, 0, len(registry))
	for _, n := range Names() {
		out = append(out, registry[n])
	}
	return out
}

// ErrUnknown formats the canonical unknown-model error.
func ErrUnknown(name string) error {
	return fmt.Errorf("unknown fault model %q (have %s)", name, strings.Join(Names(), ", "))
}

// Validate statically checks one spec against the registry without compiling:
// the model exists, its parameter bag resolves, link sets are only given to
// link models, and — when n > 0 — link-set ids are in [0, n). Errors name the
// offending field relative to the spec.
func Validate(sp Spec, n int) error {
	m, ok := Get(sp.Model)
	if !ok {
		return fmt.Errorf("model: %w", ErrUnknown(sp.Model))
	}
	if _, err := param.Resolve(sp.Params, m.Params); err != nil {
		return fmt.Errorf("params: %w", err)
	}
	if !m.Links && (len(sp.To) > 0 || len(sp.From) > 0) {
		return fmt.Errorf("model %s takes no to/from link sets", m.Name)
	}
	for i, v := range sp.To {
		if v < 0 || (n > 0 && v >= n) {
			return fmt.Errorf("to[%d] = %d out of [0,%d)", i, v, n)
		}
	}
	for i, v := range sp.From {
		if v < 0 || (n > 0 && v >= n) {
			return fmt.Errorf("from[%d] = %d out of [0,%d)", i, v, n)
		}
	}
	return nil
}

// Build compiles and merges a spec list into one Schedule. An empty list
// yields nil (no fault plan at all); a non-empty list always yields a
// non-nil Schedule, even if it schedules nothing — attaching it switches the
// engine to failure-isolation mode, which is wanted whenever faults are
// declared. Each spec's rng is seeded from (env.Seed, model name, index), so
// the same specs against the same Env compile to an identical Schedule.
func Build(specs []Spec, env Env) (*Schedule, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	var out *Schedule
	for i, sp := range specs {
		m, ok := Get(sp.Model)
		if !ok {
			return nil, ErrUnknown(sp.Model)
		}
		if err := Validate(sp, env.N); err != nil {
			return nil, fmt.Errorf("fault model %s: %w", sp.Model, err)
		}
		vals, err := param.Resolve(sp.Params, m.Params)
		if err != nil {
			return nil, fmt.Errorf("fault model %s: %w", sp.Model, err)
		}
		rng := specRand(env.Seed, sp.Model, i)
		s, err := m.Compile(sp, vals, env, rng)
		if err != nil {
			return nil, fmt.Errorf("fault model %s: %w", sp.Model, err)
		}
		out = merge(out, s)
	}
	if out == nil {
		out = &Schedule{}
	}
	return out, nil
}

// specRand derives the deterministic random source for spec number idx of a
// build: an FNV-style fold of the model name into the run seed, with the
// index in the second PCG word so repeated models stay independent.
func specRand(seed int64, model string, idx int) *rand.Rand {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(model); i++ {
		h = (h ^ uint64(model[i])) * 0x100000001b3
	}
	return rand.New(rand.NewPCG(uint64(seed)^h, uint64(idx)*0x9e3779b97f4a7c15+0x6a09e667f3bcc909))
}
