package graph

import (
	"fmt"
	"math"
	"math/bits"

	"ncc/internal/param"
)

// CapacitySpec is the serializable "which capacities" half of a scenario's
// heterogeneous-capacity block: a registered policy name, its parameter bag,
// and — for the explicit policy — a literal per-node capacity list.
type CapacitySpec struct {
	Policy string       `json:"policy"`
	Params param.Values `json:"params,omitempty"`
	Values []float64    `json:"values,omitempty"`
}

// CapacityPolicy is a registered way of assigning each node its own per-round
// message capacity, given the built graph and the model's uniform base
// capacity (capfactor * ceil(log2 n)). Policies self-register at init time;
// the scenario runner and the CLIs resolve them exclusively through this
// registry. Build returns nil to mean "uniform: every node gets the base" —
// the canonical spelling of homogeneous capacities.
//
// Unless a policy documents otherwise, produced capacities are floored at
// ceil(log2 n): the comm collectives inject Theta(log n) messages per round,
// and a node below that floor could not run them at all.
type CapacityPolicy struct {
	Name string
	Desc string
	// Params declares the accepted parameters; Build receives a bag that has
	// been validated and defaulted against them.
	Params []param.Def
	// NeedsValues marks policies that consume a CapacitySpec's explicit
	// per-node Values list.
	NeedsValues bool
	Build       func(g *Graph, base int, v param.Values, values []float64) ([]int, error)
}

// CapacityPolicies is the capacity-policy registry. A policy needs a build
// function.
var CapacityPolicies = param.NewRegistry("capacity policy", func(p CapacityPolicy) (string, []param.Def) {
	if p.Build == nil {
		panic(fmt.Sprintf("graph: capacity policy %q has no build function", p.Name))
	}
	return p.Name, p.Params
})

// ValidateCapacitySpec statically checks a spec: the policy exists, its
// parameter bag resolves, and explicit values (where the policy takes them)
// are integral capacities >= 1. n > 0 additionally pins the expected values
// length (0 means the clique size is not statically known). Error messages
// name the offending field relative to the spec, so callers can prefix their
// own path.
func ValidateCapacitySpec(s CapacitySpec, n int) error {
	p, _, err := CapacityPolicies.Resolve(s.Policy, s.Params)
	if err != nil {
		return param.FieldError(err, "policy")
	}
	if len(s.Values) > 0 && !p.NeedsValues {
		return fmt.Errorf("values: policy %s takes no explicit values", s.Policy)
	}
	if p.NeedsValues {
		if len(s.Values) == 0 {
			return fmt.Errorf("values: policy %s requires a per-node capacity list", s.Policy)
		}
		if n > 0 && len(s.Values) != n {
			return fmt.Errorf("values: %d entries for %d nodes", len(s.Values), n)
		}
		for i, v := range s.Values {
			if v < 1 || v != math.Trunc(v) {
				return fmt.Errorf("values[%d] = %v, need an integer >= 1", i, v)
			}
		}
	}
	return nil
}

// BuildCapacities materializes a spec against a built graph and the model's
// uniform base capacity. A nil result means uniform capacities (every node
// gets base); a non-nil result has exactly g.N() entries, each >= 1.
func BuildCapacities(s CapacitySpec, g *Graph, base int) ([]int, error) {
	p, v, err := CapacityPolicies.Resolve(s.Policy, s.Params)
	if err != nil {
		return nil, err
	}
	if len(s.Values) > 0 && !p.NeedsValues {
		return nil, fmt.Errorf("capacity policy %s takes no explicit values", s.Policy)
	}
	caps, err := p.Build(g, base, v, s.Values)
	if err != nil {
		return nil, fmt.Errorf("capacity policy %s: %w", s.Policy, err)
	}
	if caps != nil && len(caps) != g.N() {
		return nil, fmt.Errorf("capacity policy %s produced %d capacities for %d nodes", s.Policy, len(caps), g.N())
	}
	return caps, nil
}

// capFloor is the default lower bound on any produced capacity: one log
// factor, the least that keeps the Theta(log n)-batch collectives runnable.
func capFloor(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

// scaleCaps assigns cap_u = round(base * w_u / mean(w)), floored at floor:
// weights are relative bandwidth shares normalized so the mean node keeps the
// uniform base capacity.
func scaleCaps(base, floor int, n int, weight func(u int) float64) []int {
	total := 0.0
	for u := 0; u < n; u++ {
		total += weight(u)
	}
	mean := total / float64(n)
	caps := make([]int, n)
	for u := 0; u < n; u++ {
		c := base
		if mean > 0 {
			c = int(math.Round(float64(base) * weight(u) / mean))
		}
		caps[u] = max(floor, c)
	}
	return caps
}

func init() {
	minDef := param.Int("min", 0, "capacity floor in messages (0 = ceil(log2 n), the collectives' minimum)")
	CapacityPolicies.Register(CapacityPolicy{
		Name: "uniform",
		Desc: "every node gets the model's base capacity (the canonical homogeneous spelling)",
		Build: func(g *Graph, base int, v param.Values, _ []float64) ([]int, error) {
			return nil, nil
		},
	})
	CapacityPolicies.Register(CapacityPolicy{
		Name:   "degree",
		Desc:   "capacity proportional to degree, normalized to the base at the average degree (the paper's weighted-capacity extension)",
		Params: []param.Def{minDef},
		Build: func(g *Graph, base int, v param.Values, _ []float64) ([]int, error) {
			floor := v.Int("min")
			if floor <= 0 {
				floor = capFloor(g.N())
			}
			return scaleCaps(base, floor, g.N(), func(u int) float64 { return float64(g.Degree(u)) }), nil
		},
	})
	CapacityPolicies.Register(CapacityPolicy{
		Name:   "file",
		Desc:   "capacity proportional to the graph's embedded per-node weights (from its .nccg capacity array)",
		Params: []param.Def{minDef},
		Build: func(g *Graph, base int, v param.Values, _ []float64) ([]int, error) {
			w := g.CapacityWeights()
			if w == nil {
				return nil, fmt.Errorf("graph carries no capacity weights (ingest with an explicit capacity array)")
			}
			floor := v.Int("min")
			if floor <= 0 {
				floor = capFloor(g.N())
			}
			return scaleCaps(base, floor, g.N(), func(u int) float64 { return float64(w[u]) }), nil
		},
	})
	CapacityPolicies.Register(CapacityPolicy{
		Name:        "explicit",
		Desc:        "absolute per-node capacities listed in the scenario's values array (no log-floor: you own the consequences)",
		NeedsValues: true,
		Build: func(g *Graph, base int, v param.Values, values []float64) ([]int, error) {
			if len(values) != g.N() {
				return nil, fmt.Errorf("%d values for %d nodes", len(values), g.N())
			}
			caps := make([]int, len(values))
			for i, f := range values {
				if f < 1 || f != math.Trunc(f) {
					return nil, fmt.Errorf("values[%d] = %v, need an integer >= 1", i, f)
				}
				caps[i] = int(f)
			}
			return caps, nil
		},
	})
}
