// Package param declares named, typed, defaultable numeric parameters, and
// the one generic Registry that the graph-family, capacity-policy,
// fault-model and algorithm registries are values of. Values are float64
// because that is what JSON numbers decode to; integer parameters are
// declared as such and validated for integrality.
package param

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Def describes one declared parameter.
type Def struct {
	// Name keys the parameter in a Values bag (and in JSON scenario files).
	Name string `json:"name"`
	// Desc is a one-line human description shown by the CLIs' -list mode.
	Desc string `json:"desc,omitempty"`
	// Default is the value used when the parameter is absent.
	Default float64 `json:"default"`
	// IsInt requires the supplied value to be integral.
	IsInt bool `json:"int,omitempty"`
}

// Int declares an integer parameter.
func Int(name string, def int, desc string) Def {
	return Def{Name: name, Desc: desc, Default: float64(def), IsInt: true}
}

// Float declares a floating-point parameter.
func Float(name string, def float64, desc string) Def {
	return Def{Name: name, Desc: desc, Default: def}
}

// Values is a bag of named parameter values, as decoded from CLI flags or a
// JSON scenario file.
type Values map[string]float64

// Int reads an integer parameter. The value must have been validated and
// defaulted against the owning registry entry first.
func (v Values) Int(name string) int { return int(v[name]) }

// Int64 reads an integer parameter as int64.
func (v Values) Int64(name string) int64 { return int64(v[name]) }

// Float reads a floating-point parameter.
func (v Values) Float(name string) float64 { return v[name] }

// Clone returns a copy of v (nil stays nil-equivalent: an empty map).
func (v Values) Clone() Values {
	out := make(Values, len(v))
	for k, val := range v {
		out[k] = val
	}
	return out
}

// Names lists the declared parameter names.
func Names(defs []Def) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	return out
}

// Describe renders a compact "name=default (desc)" list for -list output.
func Describe(defs []Def) string {
	parts := make([]string, len(defs))
	for i, d := range defs {
		if d.IsInt {
			parts[i] = fmt.Sprintf("%s=%d", d.Name, int(d.Default))
		} else {
			parts[i] = fmt.Sprintf("%s=%g", d.Name, d.Default)
		}
	}
	return strings.Join(parts, " ")
}

// Resolve validates v against defs and returns a complete bag: every declared
// parameter present (defaults applied), no undeclared names, integer
// parameters integral.
func Resolve(v Values, defs []Def) (Values, error) {
	out := make(Values, len(defs))
	for _, d := range defs {
		out[d.Name] = d.Default
	}
	var unknown []string
	for name, val := range v {
		found := false
		for _, d := range defs {
			if d.Name != name {
				continue
			}
			found = true
			if d.IsInt && val != math.Trunc(val) {
				return nil, fmt.Errorf("param %s = %v must be an integer", name, val)
			}
			out[name] = val
		}
		if !found {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown params %s (declared: %s)",
			strings.Join(unknown, ", "), strings.Join(Names(defs), ", "))
	}
	return out, nil
}
