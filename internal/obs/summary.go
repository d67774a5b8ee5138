package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// Phase is a maximal range of rounds sharing an activity signature: the same
// message-volume band (log2 of messages per round) and the same
// throttle/fault flags. Algorithm stages — doubling phases, broadcast waves,
// drain-out tails — show up as distinct bands, so the segmentation recovers
// the phase structure without any protocol knowledge.
type Phase struct {
	First, Last int // inclusive round range
	Msgs        int64
	MaxRecv     int
	Label       string
}

// phaseSig buckets a round for phase segmentation.
type phaseSig struct {
	band      int // bits.Len(msgs): 0 = quiet, k = [2^(k-1), 2^k)
	throttled bool
	faulty    bool
}

// phases segments one run's rounds.
func phases(rt *RunTrace) []Phase {
	var out []Phase
	var cur phaseSig
	for i, s := range rt.Rounds {
		sig := phaseSig{
			band:      bits.Len(uint(s.Messages)),
			throttled: s.SendThrottled > 0 || s.RecvThrottled > 0,
			faulty:    s.DroppedFault > 0 || s.DroppedDead > 0 || s.Down > 0,
		}
		if i == 0 || sig != cur || s.Round == 0 && i > 0 {
			out = append(out, Phase{First: i, Last: i, Label: sigLabel(sig)})
			cur = sig
		}
		p := &out[len(out)-1]
		p.Last = i
		p.Msgs += int64(s.Messages)
		p.MaxRecv = max(p.MaxRecv, s.MaxRecvOffered)
	}
	return out
}

func sigLabel(sig phaseSig) string {
	var b strings.Builder
	if sig.band == 0 {
		b.WriteString("quiet")
	} else {
		fmt.Fprintf(&b, "load~2^%d", sig.band-1)
	}
	if sig.throttled {
		b.WriteString("+throttle")
	}
	if sig.faulty {
		b.WriteString("+faults")
	}
	return b.String()
}

// sparkline renders per-round message counts as a fixed-width curve, scaled
// to the series maximum. Deterministic: pure arithmetic on the samples.
func sparkline(vals []int, width int) string {
	if len(vals) == 0 {
		return ""
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	if len(vals) < width {
		width = len(vals)
	}
	peak := 0
	for _, v := range vals {
		peak = max(peak, v)
	}
	var b strings.Builder
	for i := 0; i < width; i++ {
		lo, hi := i*len(vals)/width, (i+1)*len(vals)/width
		if hi == lo {
			hi = lo + 1
		}
		sum := 0
		for _, v := range vals[lo:hi] {
			sum += v
		}
		avg := float64(sum) / float64(hi-lo)
		if peak == 0 {
			b.WriteRune(levels[0])
			continue
		}
		k := int(math.Round(avg / float64(peak) * float64(len(levels)-1)))
		b.WriteRune(levels[k])
	}
	return b.String()
}

// pct returns the p-quantile of sorted vals by the ceil rule the engine's
// capacity-utilization stats use.
func pct(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := max(0, int(math.Ceil(p*float64(len(sorted))))-1)
	return sorted[k]
}

// WriteSummary renders the human-readable trace summary: per run, the header
// identity, traffic totals, phase table, round-rate curve, and — when the
// trace carries timing lines — shard-imbalance percentiles. Output is a pure
// function of the trace bytes, pinned by golden tests.
func WriteSummary(w io.Writer, t *Trace) {
	for ri := range t.Runs {
		rt := &t.Runs[ri]
		h := &rt.Header
		fmt.Fprintf(w, "run %d: algo=%s graph=%s n=%d seed=%d cap=%d\n", ri, orDash(h.Algo), orDash(h.Graph), h.N, h.Seed, h.Cap)
		if h.Scenario != "" {
			fmt.Fprintf(w, "  scenario %s\n", h.Scenario)
		}
		status := "ok"
		if rt.End.Failed {
			status = "FAILED"
		}
		fmt.Fprintf(w, "  %d rounds, %d msgs, %d words [%s]\n", rt.End.Rounds, rt.End.Msgs, rt.End.Words, status)
		var thr, faults int64
		rates := make([]int, len(rt.Rounds))
		for i, s := range rt.Rounds {
			rates[i] = s.Messages
			thr += int64(s.SendThrottled + s.RecvThrottled)
			faults += int64(s.DroppedFault + s.DroppedDead + s.DroppedToFinished)
		}
		if thr > 0 || faults > 0 {
			fmt.Fprintf(w, "  dropped: %d throttled, %d faults/dead/finished\n", thr, faults)
		}
		if len(rt.Rounds) == 0 {
			continue
		}
		fmt.Fprintf(w, "  phases:\n")
		for i, p := range phases(rt) {
			n := p.Last - p.First + 1
			fmt.Fprintf(w, "    %2d  rounds %d-%d (%d)  %s  %.1f msgs/round, peak recv %d\n",
				i+1, p.First, p.Last, n, p.Label, float64(p.Msgs)/float64(n), p.MaxRecv)
		}
		fmt.Fprintf(w, "  rate: %s (peak %d msgs/round)\n", sparkline(rates, 48), maxOf(rates))
		writeImbalance(w, rt)
	}
}

// writeImbalance reports shard-imbalance percentiles over rounds: for each
// timed round, the slowest shard's delivery time over the mean. 1.00 is a
// perfectly balanced round.
func writeImbalance(w io.Writer, rt *RunTrace) {
	var imbs []float64
	for _, g := range rt.Timing {
		if len(g.Shards) == 0 {
			continue
		}
		var tot, peak int64
		for _, sh := range g.Shards {
			d := sh[1] + sh[2] // send + recv nanos
			tot += d
			peak = max(peak, d)
		}
		if tot > 0 {
			mean := float64(tot) / float64(len(g.Shards))
			imbs = append(imbs, float64(peak)/mean)
		}
	}
	if len(imbs) == 0 {
		fmt.Fprintf(w, "  shard timing: not recorded (trace with -trace-timing to capture)\n")
		return
	}
	sort.Float64s(imbs)
	fmt.Fprintf(w, "  shard imbalance (slowest/mean): p50 %.2f, p90 %.2f, max %.2f over %d timed rounds\n",
		pct(imbs, 0.50), pct(imbs, 0.90), pct(imbs, 1), len(imbs))
	writeShardTime(w, rt)
}

// writeShardTime splits the shards' round time, summed over timed rounds,
// into program compute (release to the shard's last arrival), barrier wait
// (last arrival to the coordinator's wake) and delivery (send + recv phases).
// Traces that predate the compute span report wait and delivery only.
func writeShardTime(w io.Writer, rt *RunTrace) {
	var compute, wait, deliver int64
	for _, g := range rt.Timing {
		for _, sh := range g.Shards {
			wait += sh[0]
			deliver += sh[1] + sh[2]
			compute += sh[3]
		}
	}
	total := float64(compute + wait + deliver)
	if total == 0 {
		return
	}
	share := func(v int64) float64 { return 100 * float64(v) / total }
	if compute == 0 {
		fmt.Fprintf(w, "  shard time: barrier wait %.1f%%, delivery %.1f%% (no compute span recorded)\n",
			share(wait), share(deliver))
		return
	}
	fmt.Fprintf(w, "  shard time: compute %.1f%%, barrier wait %.1f%%, delivery %.1f%%\n",
		share(compute), share(wait), share(deliver))
}

// WritePhases emits the phase table in a machine-readable form. With
// pprofLabels it is framed as a pprof tag map: CPU profiles captured with
// `nccrun -cpuprofile` label every sample with its run index (run=N) and
// scenario hash, so `go tool pprof -tagfocus run=N` isolates a run and this
// table says which algorithm phases (round ranges) that run spent its
// messages in.
func WritePhases(w io.Writer, t *Trace, pprofLabels bool) {
	if pprofLabels {
		fmt.Fprintf(w, "# pprof tag map for profiles captured with `nccrun -cpuprofile`\n")
		fmt.Fprintf(w, "# isolate a run: go tool pprof -tagfocus run=<i> <profile>\n")
	}
	for ri := range t.Runs {
		rt := &t.Runs[ri]
		if pprofLabels {
			fmt.Fprintf(w, "run=%d scenario=%s algo=%s\n", ri, orDash(rt.Header.Scenario), orDash(rt.Header.Algo))
		}
		for i, p := range phases(rt) {
			if pprofLabels {
				fmt.Fprintf(w, "  phase=%d rounds=%d-%d label=%s msgs=%d\n", i+1, p.First, p.Last, p.Label, p.Msgs)
			} else {
				fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%d\n", ri, i+1, p.First, p.Last, p.Label, p.Msgs)
			}
		}
	}
}

// WriteCSV writes the trace's per-round traffic as CSV with the header
// run,round,messages,words,maxRecvOffered: one row per round line, for
// round/load plots of an algorithm's phase structure.
func WriteCSV(w io.Writer, t *Trace) {
	fmt.Fprintln(w, "run,round,messages,words,maxRecvOffered")
	for ri := range t.Runs {
		for _, s := range t.Runs[ri].Rounds {
			fmt.Fprintf(w, "%d,%d,%d,%d,%d\n", ri, s.Round, s.Messages, s.Words, s.MaxRecvOffered)
		}
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func maxOf(vals []int) int {
	m := 0
	for _, v := range vals {
		m = max(m, v)
	}
	return m
}
