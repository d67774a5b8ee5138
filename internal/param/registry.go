package param

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Registry is a named-plugin registry of one kind: graph families, capacity
// policies, fault models or algorithms. Each entry has a unique name and
// declares its parameters. Entries register at init time and are only read
// afterwards, so a Registry needs no lock.
type Registry[E any] struct {
	kind    string
	meta    func(E) (string, []Def)
	entries map[string]registered[E]
}

type registered[E any] struct {
	entry  E
	params []Def
}

// NewRegistry returns an empty registry of plugins of the given kind (as it
// reads in errors: "graph family", "fault model"). meta returns an entry's
// name and parameter declarations; Register calls it once per entry, so it
// may also panic on an entry its package considers incomplete.
func NewRegistry[E any](kind string, meta func(E) (name string, params []Def)) *Registry[E] {
	return &Registry[E]{kind: kind, meta: meta, entries: map[string]registered[E]{}}
}

// Register adds e. An empty or duplicate name is a programming error and
// panics.
func (r *Registry[E]) Register(e E) {
	name, params := r.meta(e)
	if name == "" {
		panic(fmt.Sprintf("param: %s registered without a name", r.kind))
	}
	if _, dup := r.entries[name]; dup {
		panic(fmt.Sprintf("param: %s %q registered twice", r.kind, name))
	}
	r.entries[name] = registered[E]{e, params}
}

// Get looks up a registered entry.
func (r *Registry[E]) Get(name string) (E, bool) {
	reg, ok := r.entries[name]
	return reg.entry, ok
}

// Names lists the registered names in sorted order.
func (r *Registry[E]) Names() []string {
	out := make([]string, 0, len(r.entries))
	for name := range r.entries {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// All returns every registered entry, ordered by name.
func (r *Registry[E]) All() []E {
	names := r.Names()
	out := make([]E, len(names))
	for i, name := range names {
		out[i] = r.entries[name].entry
	}
	return out
}

// Resolve looks name up and resolves the parameter bag v against the entry's
// declarations (see the package-level Resolve). An unknown name fails with
// `unknown <kind> "<name>" (have a, b, ...)`, a bag that does not resolve with
// `<kind> <name>: <bag error>`.
func (r *Registry[E]) Resolve(name string, v Values) (E, Values, error) {
	reg, ok := r.entries[name]
	if !ok {
		var zero E
		return zero, nil, &lookupError{kind: r.kind, name: name, have: r.Names()}
	}
	vals, err := Resolve(v, reg.params)
	if err != nil {
		return reg.entry, nil, &lookupError{kind: r.kind, name: name, err: err}
	}
	return reg.entry, vals, nil
}

// lookupError is a failed Registry.Resolve: either name is not registered
// (err is nil and have lists the registered names) or its parameter bag does
// not resolve (err says why).
type lookupError struct {
	kind, name string
	have       []string
	err        error
}

func (e *lookupError) Error() string {
	if e.err == nil {
		return fmt.Sprintf("unknown %s %q (have %s)", e.kind, e.name, strings.Join(e.have, ", "))
	}
	return fmt.Sprintf("%s %s: %v", e.kind, e.name, e.err)
}

func (e *lookupError) Unwrap() error { return e.err }

// FieldError re-spells a Resolve error for a validator that names the
// spec's fields: an unknown name under nameField, a bag error under "params"
// without the kind and name the field path already implies. Other errors
// pass through unchanged.
func FieldError(err error, nameField string) error {
	var le *lookupError
	switch {
	case !errors.As(err, &le):
		return err
	case le.err == nil:
		return fmt.Errorf("%s: %w", nameField, err)
	default:
		return fmt.Errorf("params: %w", le.err)
	}
}
