package param

import (
	"fmt"
	"reflect"
	"testing"
)

type plugin struct {
	name   string
	params []Def
}

func newTestRegistry(names ...string) *Registry[plugin] {
	r := NewRegistry("widget", func(p plugin) (string, []Def) { return p.name, p.params })
	for _, name := range names {
		r.Register(plugin{name: name, params: defs()})
	}
	return r
}

func TestRegistry(t *testing.T) {
	cases := []struct {
		name  string
		run   func(r *Registry[plugin]) (any, error)
		want  any    // the result, when the call returns
		err   string // the error text, "" for none
		panic string // the panic message, "" for none
	}{
		{
			name:  "duplicate name",
			run:   func(r *Registry[plugin]) (any, error) { r.Register(plugin{name: "b"}); return nil, nil },
			panic: `param: widget "b" registered twice`,
		},
		{
			name:  "empty name",
			run:   func(r *Registry[plugin]) (any, error) { r.Register(plugin{}); return nil, nil },
			panic: "param: widget registered without a name",
		},
		{
			name: "names sorted",
			run:  func(r *Registry[plugin]) (any, error) { return r.Names(), nil },
			want: []string{"a", "b", "c"},
		},
		{
			name: "all in name order",
			run: func(r *Registry[plugin]) (any, error) {
				var out []string
				for _, p := range r.All() {
					out = append(out, p.name)
				}
				return out, nil
			},
			want: []string{"a", "b", "c"},
		},
		{
			name: "resolve applies defaults",
			run: func(r *Registry[plugin]) (any, error) {
				_, v, err := r.Resolve("a", Values{"n": 8})
				return v, err
			},
			want: Values{"n": 8, "p": 0.1},
		},
		{
			name: "resolve unknown name",
			run: func(r *Registry[plugin]) (any, error) {
				_, v, err := r.Resolve("zz", nil)
				return v, err
			},
			err: `unknown widget "zz" (have a, b, c)`,
		},
		{
			name: "resolve bad bag",
			run: func(r *Registry[plugin]) (any, error) {
				_, v, err := r.Resolve("b", Values{"q": 1})
				return v, err
			},
			err: "widget b: unknown params q (declared: n, p)",
		},
		{
			name: "field paths of an unknown name",
			run: func(r *Registry[plugin]) (any, error) {
				_, _, err := r.Resolve("zz", nil)
				return nil, FieldError(err, "kind")
			},
			err: `kind: unknown widget "zz" (have a, b, c)`,
		},
		{
			name: "field paths of a bad bag",
			run: func(r *Registry[plugin]) (any, error) {
				_, _, err := r.Resolve("b", Values{"n": 0.5})
				return nil, FieldError(err, "kind")
			},
			err: "params: param n = 0.5 must be an integer",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newTestRegistry("c", "a", "b")
			var got any
			var err error
			var panicked any
			func() {
				defer func() { panicked = recover() }()
				got, err = tc.run(r)
			}()
			if tc.panic != "" || panicked != nil {
				if fmt.Sprint(panicked) != tc.panic {
					t.Fatalf("panic = %v, want %q", panicked, tc.panic)
				}
				return
			}
			if tc.err != "" {
				if err == nil || err.Error() != tc.err {
					t.Fatalf("err = %v, want %q", err, tc.err)
				}
				return
			}
			if err != nil || !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("got %v, %v; want %v", got, err, tc.want)
			}
		})
	}
}
