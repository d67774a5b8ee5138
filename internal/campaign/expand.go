package campaign

import (
	"fmt"

	"ncc/internal/scenario"
)

// Variant names one comparative axis of a campaign entry.
type Variant string

const (
	// VariantNCC is the entry's scenario as written: the paper's algorithm.
	VariantNCC Variant = "ncc"
	// VariantBaseline is the same scenario with the algorithm swapped for
	// its naive counterpart (same graph, model, sweep and parameters).
	VariantBaseline Variant = "baseline"
	// VariantKMachine is the same scenario with k-machine accounting
	// attached (same run, extra Record section).
	VariantKMachine Variant = "kmachine"
)

// Unit is one executable cell of the expanded campaign matrix: a single
// sweep-bearing scenario — exactly the payload of one nccd job — addressed by
// its canonical hash. Units with equal hashes are the same computation; the
// executor runs each distinct hash once and the report references results by
// hash, so overlapping entries and immediate re-runs hit the result cache.
type Unit struct {
	Entry    string            `json:"entry"`
	Variant  Variant           `json:"variant"`
	Scenario scenario.Scenario `json:"scenario"`
	Hash     string            `json:"hash"`
}

// Expand resolves the campaign matrix into its deterministic unit sequence:
// entries in spec order, each contributing its ncc variant, then the baseline
// variant (when the entry has a pairing), then the kmachine variant (when the
// entry asks for accounting). Campaign-wide sweep and model defaults overlay
// whatever each entry's scenario leaves unset; the overlaid scenario is what
// every variant shares, so the comparison is apples-to-apples.
func (sp Spec) Expand() ([]Unit, error) {
	var units []Unit
	for i, e := range sp.Entries {
		if e.Scenario == nil {
			return nil, fmt.Errorf("entries[%d]: needs a ref or an inline scenario", i)
		}
		name := e.displayName(i)
		base := *e.Scenario
		if base.Sweep == nil {
			base.Sweep = sp.Sweep
		}
		base.Model = overlayModel(base.Model, sp.Model)

		add := func(v Variant, sc scenario.Scenario) error {
			sc.Name = name + "/" + string(v)
			h, err := sc.Hash()
			if err != nil {
				return fmt.Errorf("entry %s, %s variant: %w", name, v, err)
			}
			units = append(units, Unit{Entry: name, Variant: v, Scenario: sc, Hash: h})
			return nil
		}

		if err := add(VariantNCC, base); err != nil {
			return nil, err
		}
		bl, err := e.baselineAlgo()
		if err != nil {
			return nil, fmt.Errorf("entries[%d]: %w", i, err)
		}
		if bl != "" {
			sc := base
			sc.Algo = bl
			if err := add(VariantBaseline, sc); err != nil {
				return nil, err
			}
		}
		if e.KMachine != nil {
			sc := base
			km := *e.KMachine
			sc.KMachine = &km
			if err := add(VariantKMachine, sc); err != nil {
				return nil, err
			}
		}
	}
	return units, nil
}

// overlayModel fills the zero-valued fields of an entry's model from the
// campaign-wide defaults.
func overlayModel(m scenario.Model, d *scenario.Model) scenario.Model {
	if d == nil {
		return m
	}
	if m.CapFactor == 0 {
		m.CapFactor = d.CapFactor
	}
	if m.MaxWords == 0 {
		m.MaxWords = d.MaxWords
	}
	if m.MaxRounds == 0 {
		m.MaxRounds = d.MaxRounds
	}
	if m.Workers == 0 {
		m.Workers = d.Workers
	}
	if m.Seed == 0 {
		m.Seed = d.Seed
	}
	return m
}
