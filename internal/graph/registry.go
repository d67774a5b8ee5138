package graph

import (
	"fmt"
	"sort"
	"strings"

	"ncc/internal/param"
)

// Family is a registered graph generator: a named family with declared,
// defaultable parameters. Families self-register at init time; the CLIs,
// the scenario runner and the benchmarks resolve generators exclusively
// through this registry, so adding a family here makes it available
// everywhere at once.
type Family struct {
	Name string
	Desc string
	// Params declares the accepted parameters; Build receives a bag that has
	// been validated and defaulted against them.
	Params []param.Def
	// Seeded marks families whose output depends on Spec.Seed.
	Seeded bool
	// FromFile marks families that load a stored graph named by Spec.File
	// instead of generating one; Build is bypassed in favor of the installed
	// file resolver.
	FromFile bool
	Build    func(v param.Values, seed int64) (*Graph, error)
}

// Spec selects a family plus concrete parameter values — the serializable
// "which graph" half of a scenario. For FromFile families, File names the
// stored graph (the content hash of its .nccg file).
type Spec struct {
	Family string       `json:"family"`
	Params param.Values `json:"params,omitempty"`
	Seed   int64        `json:"seed,omitempty"`
	File   string       `json:"file,omitempty"`
}

func (s Spec) String() string {
	parts := make([]string, 0, len(s.Params))
	for name := range s.Params {
		parts = append(parts, name)
	}
	sort.Strings(parts)
	for i, name := range parts {
		parts[i] = fmt.Sprintf("%s=%g", name, s.Params[name])
	}
	if s.File != "" {
		ref := s.File
		if len(ref) > 12 {
			ref = ref[:12]
		}
		parts = append(parts, "file="+ref)
	}
	return fmt.Sprintf("%s{%s}", s.Family, strings.Join(parts, " "))
}

// fileResolver loads a stored graph by reference (a content hash). The graph
// package cannot depend on internal/graphio — graphio already imports graph —
// so graphio installs the real loader at init time via SetFileResolver;
// importing it (the scenario package does) is what links the two.
var fileResolver = func(ref string) (*Graph, error) {
	return nil, fmt.Errorf("no graph file resolver installed (import ncc/internal/graphio)")
}

// SetFileResolver installs the loader backing the "file" family.
func SetFileResolver(fn func(ref string) (*Graph, error)) {
	if fn == nil {
		panic("graph: nil file resolver")
	}
	fileResolver = fn
}

// Families is the graph-family registry. A family needs a build function.
var Families = param.NewRegistry("graph family", func(f Family) (string, []param.Def) {
	if f.Build == nil {
		panic(fmt.Sprintf("graph: family %q has no build function", f.Name))
	}
	return f.Name, f.Params
})

// Build materializes a Spec: it resolves the family, validates and defaults
// the parameters, and runs the generator (or, for FromFile families, the
// installed file resolver).
func Build(s Spec) (*Graph, error) {
	f, v, err := Families.Resolve(s.Family, s.Params)
	if err != nil {
		return nil, err
	}
	if f.FromFile {
		if s.File == "" {
			return nil, fmt.Errorf("graph family %s: missing file reference", s.Family)
		}
		g, err := fileResolver(s.File)
		if err != nil {
			return nil, fmt.Errorf("graph family %s: %w", s.Family, err)
		}
		return g, nil
	}
	if s.File != "" {
		return nil, fmt.Errorf("graph family %s: file reference only valid for the file family", s.Family)
	}
	g, err := f.Build(v, s.Seed)
	if err != nil {
		return nil, fmt.Errorf("graph family %s: %w", s.Family, err)
	}
	return g, nil
}

// needPositive rejects non-positive size parameters before they reach a
// generator (where they would build nonsense or panic).
func needPositive(v param.Values, names ...string) error {
	for _, name := range names {
		if v.Int(name) < 1 {
			return fmt.Errorf("param %s = %d, need >= 1", name, v.Int(name))
		}
	}
	return nil
}

func init() {
	nDef := param.Int("n", 64, "number of nodes")
	Families.Register(Family{
		Name: "gnm", Desc: "uniform random graph with exactly m edges", Seeded: true,
		Params: []param.Def{nDef, param.Int("m", 0, "edge count (0 = 3n)")},
		Build: func(v param.Values, seed int64) (*Graph, error) {
			if err := needPositive(v, "n"); err != nil {
				return nil, err
			}
			m := v.Int("m")
			if m == 0 {
				m = 3 * v.Int("n")
			}
			return GNM(v.Int("n"), m, seed), nil
		},
	})
	Families.Register(Family{
		Name: "gnp", Desc: "Erdos-Renyi G(n, p)", Seeded: true,
		Params: []param.Def{nDef, param.Float("p", 0.1, "edge probability")},
		Build: func(v param.Values, seed int64) (*Graph, error) {
			if err := needPositive(v, "n"); err != nil {
				return nil, err
			}
			if p := v.Float("p"); p < 0 || p > 1 {
				return nil, fmt.Errorf("param p = %v out of [0,1]", p)
			}
			return GNP(v.Int("n"), v.Float("p"), seed), nil
		},
	})
	Families.Register(Family{
		Name: "kforest", Desc: "union of k random spanning trees (arboricity <= k)", Seeded: true,
		Params: []param.Def{nDef, param.Int("k", 2, "number of superimposed trees")},
		Build: func(v param.Values, seed int64) (*Graph, error) {
			if err := needPositive(v, "n", "k"); err != nil {
				return nil, err
			}
			return KForest(v.Int("n"), v.Int("k"), seed), nil
		},
	})
	Families.Register(Family{
		Name: "pa", Desc: "preferential attachment with k links per new node (heavy-tailed degrees)", Seeded: true,
		Params: []param.Def{nDef, param.Int("k", 2, "attachments per node")},
		Build: func(v param.Values, seed int64) (*Graph, error) {
			if err := needPositive(v, "n", "k"); err != nil {
				return nil, err
			}
			return PreferentialAttachment(v.Int("n"), v.Int("k"), seed), nil
		},
	})
	Families.Register(Family{
		Name: "tree", Desc: "uniform-attachment random tree", Seeded: true,
		Params: []param.Def{nDef},
		Build: func(v param.Values, seed int64) (*Graph, error) {
			if err := needPositive(v, "n"); err != nil {
				return nil, err
			}
			return RandomTree(v.Int("n"), seed), nil
		},
	})
	Families.Register(Family{
		Name: "bipartite", Desc: "random bipartite graph between parts of size n1 and n2", Seeded: true,
		Params: []param.Def{
			param.Int("n1", 32, "size of the first part"),
			param.Int("n2", 32, "size of the second part"),
			param.Float("p", 0.1, "edge probability"),
		},
		Build: func(v param.Values, seed int64) (*Graph, error) {
			if err := needPositive(v, "n1", "n2"); err != nil {
				return nil, err
			}
			return Bipartite(v.Int("n1"), v.Int("n2"), v.Float("p"), seed), nil
		},
	})
	Families.Register(Family{
		Name: "grid", Desc: "rows x cols grid (planar, arboricity <= 3)",
		Params: []param.Def{param.Int("rows", 8, "grid rows"), param.Int("cols", 8, "grid cols")},
		Build: func(v param.Values, _ int64) (*Graph, error) {
			if err := needPositive(v, "rows", "cols"); err != nil {
				return nil, err
			}
			return Grid(v.Int("rows"), v.Int("cols")), nil
		},
	})
	Families.Register(Family{
		Name: "torus", Desc: "rows x cols torus (grid with wraparound)",
		Params: []param.Def{param.Int("rows", 8, "torus rows"), param.Int("cols", 8, "torus cols")},
		Build: func(v param.Values, _ int64) (*Graph, error) {
			if err := needPositive(v, "rows", "cols"); err != nil {
				return nil, err
			}
			return Torus(v.Int("rows"), v.Int("cols")), nil
		},
	})
	Families.Register(Family{
		Name: "hypercube", Desc: "k-dimensional hypercube on 2^k nodes",
		Params: []param.Def{param.Int("k", 2, "dimension (n = 2^k)")},
		Build: func(v param.Values, _ int64) (*Graph, error) {
			k := v.Int("k")
			if k < 0 || k > 24 {
				return nil, fmt.Errorf("param k = %d out of [0,24]", k)
			}
			return Hypercube(k), nil
		},
	})
	for _, simple := range []struct {
		name, desc string
		build      func(n int) *Graph
	}{
		{"star", "star with center 0 (the naive-communication worst case)", Star},
		{"cycle", "the n-cycle", Cycle},
		{"path", "the path 0-1-...-(n-1)", Path},
		{"binarytree", "complete-ish binary tree", BinaryTree},
		{"caterpillar", "path spine with one leg per spine node", Caterpillar},
		{"complete", "the complete graph K_n", Complete},
		{"empty", "the edgeless graph", Empty},
	} {
		build := simple.build
		Families.Register(Family{
			Name: simple.name, Desc: simple.desc,
			Params: []param.Def{nDef},
			Build: func(v param.Values, _ int64) (*Graph, error) {
				if err := needPositive(v, "n"); err != nil {
					return nil, err
				}
				return build(v.Int("n")), nil
			},
		})
	}
	Families.Register(Family{
		Name: "file", Desc: "ingested graph loaded from the content-addressed store by .nccg hash",
		FromFile: true,
		Build: func(param.Values, int64) (*Graph, error) {
			return nil, fmt.Errorf("file family builds through the file resolver")
		},
	})
	Families.Register(Family{
		Name: "disjoint", Desc: "disjoint union of `parts` cliques of size `size`",
		Params: []param.Def{param.Int("parts", 4, "number of cliques"), param.Int("size", 8, "clique size")},
		Build: func(v param.Values, _ int64) (*Graph, error) {
			if err := needPositive(v, "parts", "size"); err != nil {
				return nil, err
			}
			return Disjoint(v.Int("parts"), v.Int("size")), nil
		},
	})
}
