package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
)

// appendSpans writes spans as NDJSON lines at the end of path, once, when a
// traced run ends.
func appendSpans(path string, spans []span) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerOrder is the summary's fixed row order, bottom of the stack first.
// Span names outside it follow alphabetically.
var layerOrder = []string{
	"ncc.barrier", "ncc.run", "comm.aab", "comm.aggregate", "comm.multicast",
	"algo.execute", "graph.build", "faultmodel.build", "scenario.runone",
	"service.job", "coord.job", "http.submit", "http.stream", "op",
}

// layerRatios are the adjacent-layer overheads the summary reports: the cost
// per node-round of the upper layer's spans over the lower layer's.
var layerRatios = []struct{ label, upper, lower string }{
	{"L3/L0", "algo.execute", "ncc.barrier"},
	{"L4/L3", "scenario.runone", "algo.execute"},
	{"L5/L4", "service.job", "scenario.runone"},
	{"L6/L5", "coord.job", "service.job"},
}

// summarizeFile prints, per workload, each span name's count, total time and
// self time (its duration minus the part its child spans cover), then the
// layer ratios.
func summarizeFile(out io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return fmt.Errorf("%s:%d: %w", path, line, err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	summarize(out, spans)
	return nil
}

type layerStat struct {
	count              int
	totalNs, selfNs    int64
	costNs, nodeRounds float64 // spans carrying node_rounds only
}

func summarize(out io.Writer, spans []span) {
	var order []string
	byWorkload := map[string][]span{}
	for _, s := range spans {
		if _, ok := byWorkload[s.Workload]; !ok {
			order = append(order, s.Workload)
		}
		byWorkload[s.Workload] = append(byWorkload[s.Workload], s)
	}
	for i, wl := range order {
		if i > 0 {
			fmt.Fprintln(out)
		}
		stats := layerStats(byWorkload[wl])
		fmt.Fprintf(out, "workload %s\n%-18s %7s %12s %12s %7s\n", wl, "span", "count", "total_ms", "self_ms", "self%")
		var all int64
		for _, st := range stats {
			all += st.selfNs
		}
		for _, name := range rowOrder(stats) {
			st := stats[name]
			fmt.Fprintf(out, "%-18s %7d %12.3f %12.3f %6.1f%%\n", name, st.count,
				float64(st.totalNs)/1e6, float64(st.selfNs)/1e6, 100*ratio(float64(st.selfNs), float64(all)))
		}
		for _, r := range layerRatios {
			up, lo := stats[r.upper], stats[r.lower]
			if up == nil || lo == nil || up.nodeRounds == 0 || lo.nodeRounds == 0 {
				fmt.Fprintf(out, "%s n/a\n", r.label)
				continue
			}
			fmt.Fprintf(out, "%s %.3f (%s %.1f ns per node-round over %s %.1f)\n", r.label,
				(up.costNs/up.nodeRounds)/(lo.costNs/lo.nodeRounds),
				r.upper, up.costNs/up.nodeRounds, r.lower, lo.costNs/lo.nodeRounds)
		}
	}
}

func layerStats(spans []span) map[string]*layerStat {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	stats := map[string]*layerStat{}
	for _, s := range spans {
		st := stats[s.Name]
		if st == nil {
			st = &layerStat{}
			stats[s.Name] = st
		}
		dur := s.EndNs - s.StartNs
		st.count++
		st.totalNs += dur
		st.selfNs += dur - covered(s, children[s.Span])
		if nr := s.Attrs["node_rounds"]; nr > 0 {
			st.costNs += float64(dur)
			st.nodeRounds += nr
		}
	}
	return stats
}

// covered returns how much of parent's interval the union of its children's
// intervals covers.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.StartNs, parent.StartNs), min(k.EndNs, parent.EndNs)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, end := int64(0), parent.StartNs
	for _, v := range ivs {
		if v.a >= end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

func rowOrder(stats map[string]*layerStat) []string {
	var rows, rest []string
	for _, name := range layerOrder {
		if stats[name] != nil {
			rows = append(rows, name)
		}
	}
	for name := range stats {
		if !slices.Contains(layerOrder, name) {
			rest = append(rest, name)
		}
	}
	slices.Sort(rest)
	return append(rows, rest...)
}
