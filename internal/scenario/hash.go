package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"

	"ncc/internal/algo"
	"ncc/internal/faultmodel"
	"ncc/internal/graph"
	"ncc/internal/ncc"
)

// Canonical returns the semantic normal form of a scenario: two scenarios
// that specify the same computation — regardless of JSON key order, of
// spelling a default value versus omitting it, or of the order sweep axes
// list their values — canonicalize to the same value, and any semantic
// difference survives. Concretely:
//
//   - Name is cleared (display-only).
//   - Model.Workers is cleared (engine parallelism; results are bit-identical
//     across worker counts by construction).
//   - Both parameter bags are resolved against the registries, so omitted
//     parameters and explicitly spelled defaults coincide.
//   - Model defaults (CapFactor/MaxWords/MaxRounds) are filled in.
//   - A graph file reference is kept verbatim for the file family (it is the
//     content address of the graph bytes, so it pins the input graph in the
//     hash) and cleared for generator families.
//   - A capacities block resolves its policy parameter bag; the "uniform"
//     policy normalizes to an absent block (same computation).
//   - Faults normalize their fault-model spec list, with model parameter
//     bags resolved and To/From sets sorted; a block with no specs at all
//     normalizes to nil. The spec list order is preserved — it feeds each
//     spec's seed derivation.
//   - A kmachine accounting block keeps its K and has a defaulted Bandwidth
//     filled in; an absent block stays absent (accounting is hash-relevant
//     because it changes the Record).
//   - A sweep with no axes normalizes to nil; axis values are sorted.
//     Sorting makes sweeps order-insensitive: permuted submissions execute
//     the same run multiset, so they share a cache entry (the cached stream
//     carries the first submission's record order). Duplicated axis values
//     are NOT deduplicated — they genuinely repeat runs.
//
// Canonicalization fails when the algorithm or graph family is unknown or a
// parameter bag does not resolve; Validate reports those more precisely.
func (s Scenario) Canonical() (Scenario, error) {
	c := s
	c.Name = ""
	var err error
	if _, c.Params, err = algo.Algorithms.Resolve(s.Algo, s.Params); err != nil {
		return c, err
	}
	f, gp, err := graph.Families.Resolve(s.Graph.Family, s.Graph.Params)
	if err != nil {
		return c, err
	}
	c.Graph.Params = gp
	if !f.Seeded {
		c.Graph.Seed = 0
	}
	// A file reference IS the graph content's address, so it stays verbatim
	// and the graph bytes are pinned by the scenario hash; for generator
	// families a stray File is display noise and is cleared.
	if !f.FromFile {
		c.Graph.File = ""
	}
	if c.Capacities, err = canonicalCapacities(s.Capacities); err != nil {
		return c, err
	}
	m := s.Model
	if m.CapFactor == 0 {
		m.CapFactor = ncc.DefaultCapFactor
	}
	if m.MaxWords == 0 {
		m.MaxWords = ncc.DefaultMaxWords
	}
	if m.MaxRounds == 0 {
		m.MaxRounds = ncc.DefaultMaxRounds
	}
	m.Workers = 0
	c.Model = m
	if c.Faults, err = canonicalFaults(s.Faults); err != nil {
		return c, err
	}
	if c.Sweep, err = canonicalSweep(s.Sweep); err != nil {
		return c, err
	}
	if s.KMachine != nil {
		km := *s.KMachine
		if km.Bandwidth == 0 {
			km.Bandwidth = DefaultKMachineBandwidth
		}
		c.KMachine = &km
	}
	return c, nil
}

// canonicalCapacities resolves a capacities block to its normal form: the
// policy's parameter bag is resolved (defaults pinned), and the "uniform"
// policy — the meaning of an absent block — normalizes to nil, so spelling
// uniformity out loud does not change the hash.
func canonicalCapacities(cs *graph.CapacitySpec) (*graph.CapacitySpec, error) {
	if cs == nil {
		return nil, nil
	}
	_, v, err := graph.CapacityPolicies.Resolve(cs.Policy, cs.Params)
	if err != nil {
		return nil, err
	}
	if cs.Policy == "uniform" {
		return nil, nil
	}
	out := graph.CapacitySpec{Policy: cs.Policy, Params: v}
	if len(cs.Values) > 0 {
		out.Values = slices.Clone(cs.Values)
	}
	return &out, nil
}

func canonicalFaults(f *Faults) (*Faults, error) {
	specs := f.specs()
	if len(specs) == 0 {
		return nil, nil
	}
	out := make([]faultmodel.Spec, len(specs))
	for i, sp := range specs {
		_, p, err := faultmodel.Models.Resolve(sp.Model, sp.Params)
		if err != nil {
			return nil, fmt.Errorf("faults.models[%d]: %w", i, err)
		}
		out[i] = faultmodel.Spec{Model: sp.Model, Params: p, To: sortedCopy(sp.To), From: sortedCopy(sp.From)}
	}
	return &Faults{Models: out}, nil
}

func canonicalSweep(sw *Sweep) (*Sweep, error) {
	if sw == nil {
		return nil, nil
	}
	cs := Sweep{
		N:         sortedCopy(sw.N),
		CapFactor: sortedCopy(sw.CapFactor),
		Seeds:     sortedCopy(sw.Seeds),
	}
	// Fault variants keep their order (each is a distinct run of the
	// expansion) but normalize entry-wise; a variant lowering to no specs is
	// the canonical fault-free entry, the zero Faults.
	for i := range sw.Faults {
		cf, err := canonicalFaults(&sw.Faults[i])
		if err != nil {
			return nil, fmt.Errorf("sweep.faults[%d]: %w", i, err)
		}
		if cf == nil {
			cf = &Faults{}
		}
		cs.Faults = append(cs.Faults, *cf)
	}
	if len(cs.N) == 0 && len(cs.CapFactor) == 0 && len(cs.Seeds) == 0 && len(cs.Faults) == 0 {
		return nil, nil
	}
	return &cs, nil
}

func sortedCopy[T int | int64](v []T) []T {
	if len(v) == 0 {
		return nil
	}
	out := slices.Clone(v)
	slices.Sort(out)
	return out
}

// Hash returns the content address of a scenario: the hex SHA-256 of its
// canonical form's JSON encoding (encoding/json sorts map keys, and the
// canonical form pins every default, so the encoding is deterministic). Two
// scenarios hash equal exactly when they specify the same computation; the
// result cache and the scenario service key on it.
func (s Scenario) Hash() (string, error) {
	c, err := s.Canonical()
	if err != nil {
		return "", err
	}
	b, err := json.Marshal(c)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
