// Command nccgraph manages the content-addressed graph store that feeds
// file-family scenarios: it ingests real-world edge lists into the canonical
// .nccg binary format, generates graphs from the registered families, exports
// stored graphs back out, and inspects what a store holds.
//
// Usage examples:
//
//	nccgraph ingest com-dblp.txt                     # edge list -> store, prints the hash
//	nccgraph ingest -o dblp.nccg com-dblp.txt        # edge list -> .nccg file (no store)
//	nccgraph gen -graph pa -n 100000 -k 2 -seed 1    # generator -> store
//	nccgraph info <hash>                             # inspect a stored graph
//	nccgraph info -json dblp.nccg                    # inspect a .nccg file as JSON
//	nccgraph export -format edgelist -o out.txt <hash>
//
// Every stored graph lives at <store>/<sha256>.nccg; the hash is what a
// scenario's {"graph":{"family":"file","file":"<hash>"}} block references and
// what cluster nodes exchange over /v1/graphs. The store directory defaults
// to $NCC_GRAPH_DIR or ./graphs (-graph-dir overrides).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ncc/internal/blob"
	"ncc/internal/graph"
	"ncc/internal/graphio"
	"ncc/internal/param"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "ingest":
		return cmdIngest(rest, stdout, stderr)
	case "gen":
		return cmdGen(rest, stdout, stderr)
	case "info":
		return cmdInfo(rest, stdout, stderr)
	case "export":
		return cmdExport(rest, stdout, stderr)
	case "-h", "-help", "--help", "help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "nccgraph: unknown command %q\n", cmd)
		usage(stderr)
		return 2
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage: nccgraph <command> [flags] ...

commands:
  ingest   parse an edge-list file into canonical .nccg form (store or -o file)
  gen      build a registered graph family into the store (or -o file)
  info     describe a stored hash or .nccg file (-json for machine-readable)
  export   write a stored graph as an edge list or raw .nccg

run 'nccgraph <command> -h' for the command's flags
`)
}

// storeFlag adds the shared -graph-dir flag to a subcommand.
func storeFlag(fs *flag.FlagSet) *string {
	return fs.String("graph-dir", "", "graph store directory (default $NCC_GRAPH_DIR or ./graphs)")
}

func openStore(dir string) (*graphio.Store, error) {
	if dir == "" {
		dir = graphio.DefaultDir()
	}
	return graphio.NewStore(dir)
}

func parseFlags(fs *flag.FlagSet, args []string) (ok bool, code int) {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return false, 0
		}
		return false, 2
	}
	return true, 0
}

func cmdIngest(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nccgraph ingest", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := storeFlag(fs)
	out := fs.String("o", "", "write the .nccg to this file instead of the store")
	quiet := fs.Bool("q", false, "print only the content hash (or nothing with -o)")
	if ok, code := parseFlags(fs, args); !ok {
		return code
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "nccgraph ingest: need exactly one edge-list file")
		return 2
	}
	path := fs.Arg(0)
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(stderr, "nccgraph:", err)
		return 1
	}
	defer f.Close()
	g, stats, err := graphio.ParseEdgeList(f)
	if err != nil {
		fmt.Fprintf(stderr, "nccgraph: ingesting %s: %v\n", path, err)
		return 1
	}
	if !*quiet {
		mode := "identity ids"
		if stats.Remapped {
			mode = "ids remapped dense"
		}
		fmt.Fprintf(stdout, "parsed %s: %d lines (%d comments), %d raw edges, %d self-loops and %d duplicates dropped, %s\n",
			path, stats.Lines, stats.Comments, stats.RawEdges, stats.SelfLoops, stats.Duplicates, mode)
		fmt.Fprintf(stdout, "graph: n=%d m=%d\n", g.N(), g.M())
	}
	if *out != "" {
		if err := graphio.WriteFile(*out, g); err != nil {
			fmt.Fprintln(stderr, "nccgraph:", err)
			return 1
		}
		if !*quiet {
			fmt.Fprintf(stdout, "wrote %s (%d bytes)\n", *out, graphio.EncodedSize(g))
		}
		return 0
	}
	st, err := openStore(*dir)
	if err != nil {
		fmt.Fprintln(stderr, "nccgraph:", err)
		return 1
	}
	hash, err := st.PutGraph(g)
	if err != nil {
		fmt.Fprintln(stderr, "nccgraph:", err)
		return 1
	}
	if *quiet {
		fmt.Fprintln(stdout, hash)
	} else {
		fmt.Fprintf(stdout, "stored %s\nhash %s\n", st.Path(hash), hash)
	}
	return 0
}

func cmdGen(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nccgraph gen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := storeFlag(fs)
	out := fs.String("o", "", "write the .nccg to this file instead of the store")
	family := fs.String("graph", "gnm", "graph family (see nccrun -list)")
	n := fs.Int("n", 64, "number of nodes")
	seed := fs.Int64("seed", 1, "generator seed (for seeded families)")
	gparam := fs.String("gparam", "", "extra family params as name=value,...")
	quiet := fs.Bool("q", false, "print only the content hash (or nothing with -o)")
	if ok, code := parseFlags(fs, args); !ok {
		return code
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "nccgraph gen: takes no positional arguments")
		return 2
	}
	params := param.Values{}
	for _, item := range strings.Split(*gparam, ",") {
		if item = strings.TrimSpace(item); item == "" {
			continue
		}
		name, val, okCut := strings.Cut(item, "=")
		if !okCut {
			fmt.Fprintf(stderr, "nccgraph gen: -gparam %q is not name=value\n", item)
			return 2
		}
		var v float64
		if _, err := fmt.Sscanf(val, "%g", &v); err != nil {
			fmt.Fprintf(stderr, "nccgraph gen: -gparam %q: %v\n", item, err)
			return 2
		}
		params[name] = v
	}
	if _, set := params["n"]; !set {
		params["n"] = float64(*n)
	}
	g, err := graph.Build(graph.Spec{Family: *family, Params: params, Seed: *seed})
	if err != nil {
		fmt.Fprintln(stderr, "nccgraph gen:", err)
		return 2
	}
	if !*quiet {
		fmt.Fprintf(stdout, "graph: %s (n=%d m=%d)\n", g, g.N(), g.M())
	}
	if *out != "" {
		if err := graphio.WriteFile(*out, g); err != nil {
			fmt.Fprintln(stderr, "nccgraph:", err)
			return 1
		}
		if !*quiet {
			fmt.Fprintf(stdout, "wrote %s (%d bytes)\n", *out, graphio.EncodedSize(g))
		}
		return 0
	}
	st, err := openStore(*dir)
	if err != nil {
		fmt.Fprintln(stderr, "nccgraph:", err)
		return 1
	}
	hash, err := st.PutGraph(g)
	if err != nil {
		fmt.Fprintln(stderr, "nccgraph:", err)
		return 1
	}
	if *quiet {
		fmt.Fprintln(stdout, hash)
	} else {
		fmt.Fprintf(stdout, "stored %s\nhash %s\n", st.Path(hash), hash)
	}
	return 0
}

// graphInfo is the machine-readable `info -json` payload. CapacityPolicies
// lists the registered heterogeneous-capacity policies so tooling can
// discover what a scenario's capacities block may name.
type graphInfo struct {
	Hash             string       `json:"hash,omitempty"`
	N                int          `json:"n"`
	M                int          `json:"m"`
	MaxDegree        int          `json:"maxDegree"`
	Degeneracy       int          `json:"degeneracy"`
	Components       int          `json:"components"`
	HasCapacities    bool         `json:"hasCapacities"`
	Bytes            int64        `json:"bytes"`
	CapacityPolicies []policyInfo `json:"capacityPolicies"`
}

type policyInfo struct {
	Name        string `json:"name"`
	Desc        string `json:"desc"`
	Params      string `json:"params,omitempty"`
	NeedsValues bool   `json:"needsValues,omitempty"`
}

func policyRegistry() []policyInfo {
	var out []policyInfo
	for _, p := range graph.CapacityPolicies() {
		out = append(out, policyInfo{
			Name: p.Name, Desc: p.Desc, Params: param.Describe(p.Params), NeedsValues: p.NeedsValues,
		})
	}
	return out
}

// loadRef loads a graph named either by a store hash or a .nccg file path.
func loadRef(dir, ref string) (*graph.Graph, string, error) {
	if blob.ValidHash(ref) {
		st, err := openStore(dir)
		if err != nil {
			return nil, "", err
		}
		g, err := st.Open(ref)
		return g, ref, err
	}
	g, err := graphio.ReadFile(ref)
	return g, "", err
}

func cmdInfo(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nccgraph info", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := storeFlag(fs)
	jsonOut := fs.Bool("json", false, "emit JSON (including the capacity policy registry)")
	if ok, code := parseFlags(fs, args); !ok {
		return code
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "nccgraph info: need one store hash or .nccg path")
		return 2
	}
	g, hash, err := loadRef(*dir, fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "nccgraph:", err)
		return 1
	}
	deg, _ := graph.Degeneracy(g)
	_, comps := graph.Components(g)
	info := graphInfo{
		Hash:             hash,
		N:                g.N(),
		M:                g.M(),
		MaxDegree:        g.MaxDegree(),
		Degeneracy:       deg,
		Components:       comps,
		HasCapacities:    g.CapacityWeights() != nil,
		Bytes:            graphio.EncodedSize(g),
		CapacityPolicies: policyRegistry(),
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(info); err != nil {
			fmt.Fprintln(stderr, "nccgraph:", err)
			return 1
		}
		return 0
	}
	if info.Hash != "" {
		fmt.Fprintf(stdout, "hash %s\n", info.Hash)
	}
	fmt.Fprintf(stdout, "n=%d m=%d maxDegree=%d degeneracy=%d components=%d bytes=%d\n",
		info.N, info.M, info.MaxDegree, info.Degeneracy, info.Components, info.Bytes)
	if info.HasCapacities {
		fmt.Fprintln(stdout, "carries per-node capacity weights (capacities policy \"file\" applies)")
	}
	fmt.Fprintln(stdout, "capacity policies:")
	for _, p := range info.CapacityPolicies {
		fmt.Fprintf(stdout, "  %-10s %s\n", p.Name, p.Desc)
	}
	return 0
}

func cmdExport(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nccgraph export", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := storeFlag(fs)
	out := fs.String("o", "", "output file (required)")
	format := fs.String("format", "nccg", "output format: nccg or edgelist")
	if ok, code := parseFlags(fs, args); !ok {
		return code
	}
	if fs.NArg() != 1 || *out == "" {
		fmt.Fprintln(stderr, "nccgraph export: need -o <file> and one store hash or .nccg path")
		return 2
	}
	g, _, err := loadRef(*dir, fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "nccgraph:", err)
		return 1
	}
	switch *format {
	case "nccg":
		err = graphio.WriteFile(*out, g)
	case "edgelist":
		var f *os.File
		if f, err = os.Create(*out); err == nil {
			err = graphio.WriteEdgeList(f, g)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
	default:
		fmt.Fprintf(stderr, "nccgraph export: unknown format %q (have nccg, edgelist)\n", *format)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "nccgraph:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s (n=%d m=%d)\n", *out, g.N(), g.M())
	return 0
}
