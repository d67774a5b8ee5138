package campaign

import (
	"fmt"
	"os"
	"path/filepath"

	"ncc/internal/algo"
	"ncc/internal/scenario"
)

// Spec is one campaign: a named suite of comparative entries plus optional
// campaign-wide sweep and model defaults that fill in whatever the entry
// scenarios leave unset.
type Spec struct {
	Name    string          `json:"name"`
	Entries []Entry         `json:"entries"`
	Sweep   *scenario.Sweep `json:"sweep,omitempty"`
	Model   *scenario.Model `json:"model,omitempty"`
}

// Entry is one row of the campaign matrix: a scenario (inline, or a ref to a
// scenario file resolved by the CLI before submission) plus the comparative
// variants to derive from it. Baseline selects the paired naive algorithm:
// empty means automatic pairing via algo.BaselineFor, "none" suppresses the
// baseline variant, anything else names a registered algorithm explicitly.
// KMachine adds a k-machine-accounted variant of the same run.
type Entry struct {
	Name     string             `json:"name,omitempty"`
	Ref      string             `json:"ref,omitempty"`
	Scenario *scenario.Scenario `json:"scenario,omitempty"`
	Baseline string             `json:"baseline,omitempty"`
	KMachine *scenario.KMachine `json:"kmachine,omitempty"`
}

// BaselineNone is the Entry.Baseline value that suppresses the baseline
// variant of an entry whose algorithm has an automatic pairing.
const BaselineNone = "none"

// Decode parses one Spec from JSON with the same strict field checking
// scenarios get: an unknown field anywhere — spec, entries, embedded
// scenarios — is rejected with its dotted path (e.g. entries[2].basline).
func Decode(data []byte) (Spec, error) {
	var sp Spec
	if err := scenario.StrictUnmarshal(data, &sp); err != nil {
		return sp, err
	}
	return sp, nil
}

// Load reads a Spec from a JSON file with strict field checking.
func Load(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, err
	}
	sp, err := Decode(data)
	if err != nil {
		return sp, fmt.Errorf("campaign %s: %w", path, err)
	}
	return sp, nil
}

// Resolve loads every ref entry's scenario file (relative refs resolve
// against dir, typically the spec file's directory) and inlines it. Refs are
// a CLI-side convenience: the HTTP API accepts inline scenarios only, so
// ncccampaign resolves before submitting and remote runs see the identical
// expanded spec.
func (sp *Spec) Resolve(dir string) error {
	for i := range sp.Entries {
		e := &sp.Entries[i]
		switch {
		case e.Ref == "":
			continue
		case e.Scenario != nil:
			return fmt.Errorf("entries[%d]: has both ref and an inline scenario", i)
		}
		path := e.Ref
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, path)
		}
		s, err := scenario.Load(path)
		if err != nil {
			return fmt.Errorf("entries[%d]: %w", i, err)
		}
		e.Scenario = &s
		e.Ref = ""
	}
	return nil
}

// Validate checks the statically checkable parts of a campaign: the spec has
// a name and entries, every entry has a resolved scenario and an unambiguous
// display name, baseline pairings exist, and every expanded variant scenario
// validates against the algorithm and graph registries.
func (sp Spec) Validate() error {
	if sp.Name == "" {
		return fmt.Errorf("campaign has no name (it is the report's campaign field)")
	}
	if len(sp.Entries) == 0 {
		return fmt.Errorf("campaign %s has no entries", sp.Name)
	}
	seen := map[string]int{}
	for i, e := range sp.Entries {
		if e.Ref != "" {
			return fmt.Errorf("entries[%d]: unresolved ref %q (refs are resolved client-side; the API takes inline scenarios)", i, e.Ref)
		}
		if e.Scenario == nil {
			return fmt.Errorf("entries[%d]: needs a ref or an inline scenario", i)
		}
		if e.KMachine != nil && e.Scenario.KMachine != nil {
			return fmt.Errorf("entries[%d]: scenario already declares kmachine accounting; drop the entry-level kmachine block", i)
		}
		if km := e.KMachine; km != nil && km.K < 1 {
			return fmt.Errorf("entries[%d]: kmachine.k = %d, need >= 1", i, km.K)
		}
		name := e.displayName(i)
		if prev, dup := seen[name]; dup {
			return fmt.Errorf("entries[%d]: display name %q collides with entries[%d]; set distinct entry names", i, name, prev)
		}
		seen[name] = i
		if _, err := e.baselineAlgo(); err != nil {
			return fmt.Errorf("entries[%d]: %w", i, err)
		}
	}
	units, err := sp.Expand()
	if err != nil {
		return err
	}
	for _, u := range units {
		if err := u.Scenario.Validate(); err != nil {
			return fmt.Errorf("entry %s, %s variant: %w", u.Entry, u.Variant, err)
		}
	}
	return nil
}

// displayName is the entry's report label: the explicit name, else the
// scenario's name, else the algorithm.
func (e Entry) displayName(i int) string {
	switch {
	case e.Name != "":
		return e.Name
	case e.Scenario == nil:
		return fmt.Sprintf("entry%d", i)
	case e.Scenario.Name != "":
		return e.Scenario.Name
	default:
		return e.Scenario.Algo
	}
}

// baselineAlgo resolves the entry's baseline variant algorithm ("" when the
// entry has none): explicit names must be registered, and the empty value
// means automatic pairing — entries whose algorithm has no registered
// counterpart simply have no baseline variant.
func (e Entry) baselineAlgo() (string, error) {
	switch e.Baseline {
	case BaselineNone:
		return "", nil
	case "":
		if e.Scenario == nil {
			return "", nil
		}
		b, _ := algo.BaselineFor(e.Scenario.Algo)
		return b, nil
	default:
		if _, _, err := algo.Algorithms.Resolve(e.Baseline, nil); err != nil {
			return "", fmt.Errorf("baseline: %w", err)
		}
		return e.Baseline, nil
	}
}
