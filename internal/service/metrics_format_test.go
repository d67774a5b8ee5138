package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"ncc/internal/service"
)

// promSeries is one parsed sample line: a metric name, its sorted label
// pairs, and the value.
type promSeries struct {
	name   string
	labels map[string]string
	value  float64
}

// promFamily is one metric family: its declared TYPE and the samples that
// follow it.
type promFamily struct {
	typ     string
	help    string
	samples []promSeries
}

// parseProm is a strict parser for the subset of the Prometheus text
// exposition format /metrics emits. It enforces the structural rules a real
// scraper relies on: every sample belongs to a previously declared family
// (HELP then TYPE), names match the metric name charset, label values are
// properly quoted, and values parse as floats.
func parseProm(t *testing.T, text string) map[string]*promFamily {
	t.Helper()
	families := map[string]*promFamily{}
	var open string // family of the current HELP/TYPE/sample block
	for ln, line := range strings.Split(text, "\n") {
		lineNo := ln + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok || help == "" {
				t.Fatalf("line %d: HELP without text: %q", lineNo, line)
			}
			if _, dup := families[name]; dup {
				t.Fatalf("line %d: duplicate HELP for %s", lineNo, name)
			}
			families[name] = &promFamily{help: help}
			open = name
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", lineNo, line)
			}
			name, typ := fields[0], fields[1]
			f, ok := families[name]
			if !ok || name != open {
				t.Fatalf("line %d: TYPE %s without immediately preceding HELP", lineNo, name)
			}
			switch typ {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unexpected TYPE %q", lineNo, typ)
			}
			f.typ = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unexpected comment %q", lineNo, line)
		}
		s := parsePromSample(t, lineNo, line)
		fam, ok := families[familyOf(s.name)]
		if !ok || fam.typ == "" {
			t.Fatalf("line %d: sample %s precedes its HELP/TYPE", lineNo, s.name)
		}
		fam.samples = append(fam.samples, s)
	}
	return families
}

// familyOf maps a sample name to its family name: histogram series share the
// family of their _bucket/_sum/_count base name.
func familyOf(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name {
			return base
		}
	}
	return name
}

func parsePromSample(t *testing.T, lineNo int, line string) promSeries {
	t.Helper()
	s := promSeries{labels: map[string]string{}}
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		s.name = rest[:i]
		close := strings.LastIndexByte(rest, '}')
		if close < i {
			t.Fatalf("line %d: unterminated label set: %q", lineNo, line)
		}
		for _, pair := range strings.Split(rest[i+1:close], ",") {
			k, v, ok := strings.Cut(pair, "=")
			if !ok {
				t.Fatalf("line %d: malformed label %q", lineNo, pair)
			}
			uq, err := strconv.Unquote(v)
			if err != nil {
				t.Fatalf("line %d: label value %s not a quoted string: %v", lineNo, v, err)
			}
			s.labels[k] = uq
		}
		rest = strings.TrimSpace(rest[close+1:])
	} else {
		var ok bool
		s.name, rest, ok = strings.Cut(rest, " ")
		if !ok {
			t.Fatalf("line %d: sample without value: %q", lineNo, line)
		}
	}
	for _, r := range s.name {
		if !(r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')) {
			t.Fatalf("line %d: invalid metric name %q", lineNo, s.name)
		}
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		t.Fatalf("line %d: value %q: %v", lineNo, rest, err)
	}
	s.value = v
	return s
}

// checkHistogram enforces the histogram contract on one family: bucket series
// carry le labels in ascending order, counts are cumulative, the +Inf bucket
// exists and equals _count, and _sum/_count are present.
func checkHistogram(t *testing.T, name string, f *promFamily) {
	t.Helper()
	if f.typ != "histogram" {
		t.Fatalf("%s: TYPE %q, want histogram", name, f.typ)
	}
	var bounds []float64
	var counts []float64
	var sum, count float64
	haveSum, haveCount, haveInf := false, false, false
	for _, s := range f.samples {
		switch s.name {
		case name + "_bucket":
			le, ok := s.labels["le"]
			if !ok {
				t.Fatalf("%s: bucket without le label", name)
			}
			if le == "+Inf" {
				haveInf = true
				bounds = append(bounds, math.Inf(1))
			} else {
				b, err := strconv.ParseFloat(le, 64)
				if err != nil {
					t.Fatalf("%s: le=%q: %v", name, le, err)
				}
				bounds = append(bounds, b)
			}
			counts = append(counts, s.value)
		case name + "_sum":
			haveSum, sum = true, s.value
		case name + "_count":
			haveCount, count = true, s.value
		default:
			t.Fatalf("%s: unexpected series %s", name, s.name)
		}
	}
	if !haveSum || !haveCount || !haveInf {
		t.Fatalf("%s: sum=%v count=%v +Inf=%v, want all present", name, haveSum, haveCount, haveInf)
	}
	if !sort.Float64sAreSorted(bounds) {
		t.Fatalf("%s: bucket bounds out of order: %v", name, bounds)
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] < counts[i-1] {
			t.Fatalf("%s: bucket counts not cumulative: %v", name, counts)
		}
	}
	if last := counts[len(counts)-1]; last != count {
		t.Fatalf("%s: +Inf bucket %g != _count %g", name, last, count)
	}
	if count > 0 && sum < 0 {
		t.Fatalf("%s: negative _sum %g", name, sum)
	}
}

// TestMetricsPrometheusFormat scrapes /metrics through a strict parser:
// every family is well-formed, the histograms obey the bucket contract, and
// counters never decrease between an execution and a later scrape.
func TestMetricsPrometheusFormat(t *testing.T) {
	ts := newTestServer(t, service.Config{WorkerBudget: 2})

	scrape := func() map[string]*promFamily {
		return parseProm(t, string(fetch(t, ts.URL+"/metrics")))
	}
	before := scrape()

	info := submit(t, ts.URL, sweepJSON)
	waitState(t, ts.URL, info.ID, service.StateDone, 60*time.Second)
	fetch(t, ts.URL+"/v1/jobs/"+info.ID+"/records")
	fetch(t, ts.URL+"/v1/jobs/"+info.ID+"/trace")
	after := scrape()

	for _, name := range []string{
		"nccd_jobs_submitted_total", "nccd_jobs_done_total",
		"nccd_records_produced_total", "nccd_records_streamed_total",
		"nccd_trace_lines_produced_total", "nccd_trace_lines_streamed_total",
		"nccd_cache_misses_total", "nccd_engine_rounds_total",
	} {
		f, ok := after[name]
		if !ok {
			t.Fatalf("counter %s missing", name)
		}
		if f.typ != "counter" {
			t.Fatalf("%s: TYPE %q, want counter", name, f.typ)
		}
		if !strings.HasSuffix(name, "_total") {
			t.Fatalf("counter %s not suffixed _total", name)
		}
		if prev, ok := before[name]; ok && f.samples[0].value < prev.samples[0].value {
			t.Fatalf("counter %s decreased: %g -> %g", name, prev.samples[0].value, f.samples[0].value)
		}
	}
	if v := after["nccd_trace_lines_produced_total"].samples[0].value; v == 0 {
		t.Fatal("no trace lines counted for an executed sweep")
	}
	for _, name := range []string{
		"nccd_jobs_queued", "nccd_jobs_running", "nccd_worker_budget",
		"nccd_heap_bytes", "nccd_goroutines", "nccd_uptime_seconds",
	} {
		f, ok := after[name]
		if !ok {
			t.Fatalf("gauge %s missing", name)
		}
		if f.typ != "gauge" {
			t.Fatalf("%s: TYPE %q, want gauge", name, f.typ)
		}
	}
	if v := after["nccd_goroutines"].samples[0].value; v < 1 {
		t.Fatalf("nccd_goroutines = %g, want >= 1", v)
	}
	checkHistogram(t, "nccd_round_duration_seconds", after["nccd_round_duration_seconds"])
	checkHistogram(t, "nccd_job_latency_seconds", after["nccd_job_latency_seconds"])
	if f := after["nccd_round_duration_seconds"]; f.samples[len(f.samples)-1].value == 0 {
		t.Fatal("round-duration histogram empty after an executed sweep")
	}
	if _, ok := after["nccd_dispatch_latency_seconds"]; ok {
		t.Fatal("dispatch-latency histogram rendered outside coordinator mode")
	}
}

// TestMetricsEngineCounters pins the nccd_engine_* counters to the work they
// meter: after one executed job on a fresh daemon, rounds, messages and words
// equal the sums of the job's record stats.
func TestMetricsEngineCounters(t *testing.T) {
	ts := newTestServer(t, service.Config{WorkerBudget: 2})
	info := submit(t, ts.URL, sweepJSON)
	waitState(t, ts.URL, info.ID, service.StateDone, 60*time.Second)

	var want [3]float64
	lines := bytes.Split(bytes.TrimSpace(fetch(t, ts.URL+"/v1/jobs/"+info.ID+"/records")), []byte("\n"))
	for _, line := range lines {
		var rec struct {
			Error string `json:"error"`
			Stats struct {
				Rounds   int   `json:"rounds"`
				Messages int64 `json:"messages"`
				Words    int64 `json:"words"`
			} `json:"stats"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("record %q: %v", line, err)
		}
		if rec.Error != "" {
			t.Fatalf("record failed: %s", rec.Error)
		}
		want[0] += float64(rec.Stats.Rounds)
		want[1] += float64(rec.Stats.Messages)
		want[2] += float64(rec.Stats.Words)
	}
	if len(lines) != 4 || want[0] == 0 || want[1] == 0 {
		t.Fatalf("%d records with %v rounds/messages/words, want 4 runs with traffic", len(lines), want)
	}
	fams := parseProm(t, string(fetch(t, ts.URL+"/metrics")))
	for i, name := range []string{"nccd_engine_rounds_total", "nccd_engine_messages_total", "nccd_engine_words_total"} {
		if got := fams[name].samples[0].value; got != want[i] {
			t.Errorf("%s = %g, want the records' sum %g", name, got, want[i])
		}
	}
}

// TestMetricsCoordinatorSeries checks the coordinator-only surface: the
// per-worker labeled counters parse and cover every registered worker, and
// the dispatch-latency histogram renders.
func TestMetricsCoordinatorSeries(t *testing.T) {
	coord := newCoordinator(t, service.Config{WorkerTTL: time.Minute})
	w1 := newTestServer(t, service.Config{WorkerBudget: 2, Executors: 1})
	w2 := newTestServer(t, service.Config{WorkerBudget: 2, Executors: 1})
	registerWorker(t, coord.URL, "w1", w1.URL, 1)
	registerWorker(t, coord.URL, "w2", w2.URL, 1)

	// Two distinct jobs so both workers see dispatches.
	for seed := 1; seed <= 2; seed++ {
		js := fmt.Sprintf(`{"algo":"mis","graph":{"family":"kforest","params":{"n":12,"k":2},"seed":%d},"model":{"seed":%d}}`, seed, seed)
		info := submit(t, coord.URL, js)
		waitState(t, coord.URL, info.ID, service.StateDone, 60*time.Second)
	}

	fams := parseProm(t, string(fetch(t, coord.URL+"/metrics")))
	checkHistogram(t, "nccd_dispatch_latency_seconds", fams["nccd_dispatch_latency_seconds"])
	jobs, ok := fams["nccd_worker_jobs_total"]
	if !ok {
		t.Fatal("nccd_worker_jobs_total missing on a coordinator with dispatches")
	}
	seen := map[string]bool{}
	var totalDispatches float64
	for _, s := range jobs.samples {
		name := s.labels["worker"]
		if name == "" {
			t.Fatalf("per-worker series without worker label: %+v", s)
		}
		seen[name] = true
		totalDispatches += s.value
	}
	if totalDispatches < 2 {
		t.Fatalf("worker dispatch total %g, want >= 2", totalDispatches)
	}
	if len(seen) == 0 || (!seen["w1"] && !seen["w2"]) {
		t.Fatalf("per-worker series name none of the registered workers: %v", seen)
	}
	if f, ok := fams["nccd_worker_records_total"]; !ok || len(f.samples) == 0 {
		t.Fatal("nccd_worker_records_total missing")
	}
	if f := fams["nccd_workers_live"]; f == nil || f.samples[0].value != 2 {
		t.Fatal("nccd_workers_live != 2")
	}
}
