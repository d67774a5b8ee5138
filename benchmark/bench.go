package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	runtimemetrics "runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"ncc/internal/ncc"
)

// processStart is the zero of span timestamps.
var processStart = time.Now()

// runConfig is what a workload's set-up receives: the seed its inputs derive
// from, the repository root (scenarios/ and campaigns/ are read from there)
// and whether to build the test-only small size.
type runConfig struct {
	seed  int64
	root  string
	small bool
}

// workload is one named set of inputs. setup builds the inputs from the seed,
// brings the layer under test up and runs one warm-up operation; the returned
// instance runs measured passes until closed.
type workload struct {
	name    string
	why     string
	clients int // concurrent closed-loop clients of a pass
	small   int // operations per client at the small size
	setup   func(cfg runConfig) (instance, error)
}

type instance interface {
	// run executes one pass. With tr non-nil the pass is traced: every call
	// into a layer is timed and recorded as a span, and tr accumulates the
	// per-layer counts.
	run(b budget, tr *tracer) passResult
	// layers runs the traced run's calibrations and stores every per-layer
	// metric this workload reaches in tr.values.
	layers(tr *tracer, traced passResult) error
	close()
}

// sample is one timed operation of a pass: a scenario run, an engine run, or
// an nccd job from POST to the last NDJSON line.
type sample struct {
	client     int
	ms         float64
	rounds     int64
	msgs       int64
	nodeRounds int64
	hit        bool   // answered from the result cache
	fail       string // non-empty when the operation failed a check
}

type passResult struct {
	samples []sample
	wall    time.Duration // time the pass spent in timed operations
}

func (p passResult) perClient(clients int) []int {
	out := make([]int, clients)
	for _, s := range p.samples {
		out[s.client]++
	}
	return out
}

func (p passResult) totals() (rounds, msgs, nodeRounds int64) {
	for _, s := range p.samples {
		rounds += s.rounds
		msgs += s.msgs
		nodeRounds += s.nodeRounds
	}
	return
}

func (p passResult) failures() []string {
	var out []string
	for _, s := range p.samples {
		if s.fail != "" {
			out = append(out, s.fail)
		}
	}
	return out
}

// budget decides how many operations each client of a pass starts: until the
// deadline, or exactly limits[client] when limits is set (the small size, and
// a traced pass replaying the untraced pass's operations).
type budget struct {
	deadline time.Time
	limits   []int
}

func (b budget) more(client, i int) bool {
	if b.limits != nil {
		return i < b.limits[client]
	}
	return time.Now().Before(b.deadline)
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// span is one timed call into a layer, written as one NDJSON line.
type span struct {
	Span     int64              `json:"span"`
	Parent   int64              `json:"parent"`
	Req      int64              `json:"req"`
	Workload string             `json:"workload"`
	Name     string             `json:"name"`
	StartNs  int64              `json:"start_ns"`
	EndNs    int64              `json:"end_ns"`
	Attrs    map[string]float64 `json:"attrs,omitempty"`
}

// tracer collects the spans and per-layer counts of a traced run. Spans stay
// in memory until the run ends.
type tracer struct {
	workload string

	mu     sync.Mutex
	spans  []span
	nextID int64

	eng    engineAcc
	scen   scenarioAcc
	values map[string]float64
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, values: map[string]float64{}}
}

// newReq allocates a request id shared by every span of one operation.
func (t *tracer) newReq() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// add records a span and returns its id.
func (t *tracer) add(req, parent int64, name string, start, end time.Time, attrs map[string]float64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.spans = append(t.spans, span{
		Span: t.nextID, Parent: parent, Req: req, Workload: t.workload, Name: name,
		StartNs: start.Sub(processStart).Nanoseconds(), EndNs: end.Sub(processStart).Nanoseconds(), Attrs: attrs,
	})
	return t.nextID
}

// engineAcc sums the per-round probe samples of traced engine runs. Engine
// runs of one traced pass are sequential, and the probe runs on the engine's
// coordinator goroutine, so it needs no lock.
type engineAcc struct {
	runs       int
	rounds     int64
	msgs       int64
	liveRounds int64 // node-rounds of in-service, unfinished nodes
	nodeRounds int64
	active     int64
	quiet      int64
	down       int64
	dropped    int64 // fault-plane drops: DroppedFault + DroppedDead
	gapNs      int64 // wall time between consecutive probe calls of a run
	gaps       int64
	gapDeliver int64 // delivery time of the rounds gapNs covers
	deliverNs  int64 // Σ over rounds of the largest shard SendNanos+RecvNanos
	waitNs     int64 // Σ over rounds of the largest shard BarrierWaitNanos
	preNs      int64 // run call to the first probe
	postNs     int64 // last probe to return
}

// engineRun is the probe state of one traced engine run.
type engineRun struct {
	acc         *engineAcc
	n           int64
	start       time.Time
	first, last time.Time
}

func (t *tracer) startRun(n int) *engineRun {
	return &engineRun{acc: &t.eng, n: int64(n), start: time.Now()}
}

func (r *engineRun) probe(s ncc.RoundSample, timing []ncc.ShardTiming) {
	now := time.Now()
	a := r.acc
	var deliver, wait int64
	for _, st := range timing {
		deliver = max(deliver, st.SendNanos+st.RecvNanos)
		wait = max(wait, st.BarrierWaitNanos)
	}
	if r.first.IsZero() {
		r.first = now
	} else {
		a.gapNs += now.Sub(r.last).Nanoseconds()
		a.gaps++
		a.gapDeliver += deliver
	}
	r.last = now
	a.rounds++
	a.msgs += int64(s.Messages)
	live := r.n - int64(s.Finished) - int64(s.Down)
	a.liveRounds += live
	a.nodeRounds += r.n
	a.active += int64(s.Active)
	if s.Active == 0 {
		a.quiet++
	}
	a.down += int64(s.Down)
	a.dropped += int64(s.DroppedFault + s.DroppedDead)
	a.deliverNs += deliver
	a.waitNs += wait
}

// finish closes the run at its return time and reports the engine interval
// (first probe minus one mean round, to the last probe).
func (r *engineRun) finish(end time.Time) (engStart, engEnd time.Time) {
	a := r.acc
	a.runs++
	if r.first.IsZero() {
		return r.start, end
	}
	a.preNs += r.first.Sub(r.start).Nanoseconds()
	a.postNs += end.Sub(r.last).Nanoseconds()
	gap := time.Duration(ratio(float64(a.gapNs), float64(a.gaps)))
	return r.first.Add(-gap), r.last
}

// engineMetrics turns the accumulated probe samples into the ncc.* metrics.
func (t *tracer) engineMetrics() {
	a := t.eng
	v := t.values
	v["ncc.round_us"] = ratio(float64(a.gapNs), float64(a.gaps)) / 1e3
	v["ncc.deliver_ns_per_msg"] = ratio(float64(a.deliverNs), float64(a.msgs))
	v["ncc.deliver_frac"] = ratio(float64(a.gapDeliver), float64(a.gapNs))
	v["ncc.imbalance_us_per_round"] = ratio(float64(a.waitNs), float64(a.rounds)) / 1e3
	v["ncc.active_frac"] = ratio(float64(a.active), float64(a.liveRounds))
	v["ncc.quiet_round_frac"] = ratio(float64(a.quiet), float64(a.rounds))
	v["ncc.msgs_per_node_round"] = ratio(float64(a.msgs), float64(a.liveRounds))
	v["faultmodel.down_frac"] = ratio(float64(a.down), float64(a.nodeRounds))
	v["faultmodel.dropped_frac"] = ratio(float64(a.dropped), float64(a.msgs+a.dropped))
	v["algo.post_ms"] = ratio(float64(a.postNs), float64(a.runs)) / 1e6
}

// runtimeSnap is a runtime/metrics reading taken at a pass boundary.
type runtimeSnap struct {
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
	sched      *runtimemetrics.Float64Histogram
}

func readRuntime() runtimeSnap {
	s := []runtimemetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/sched/latencies:seconds"},
	}
	runtimemetrics.Read(s)
	return runtimeSnap{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
		sched:      s[3].Value.Float64Histogram(),
	}
}

// runtimeMetrics stores the runtime.* metrics of the interval a..b.
func (t *tracer) runtimeMetrics(a, b runtimeSnap, msgs int64) {
	t.values["runtime.alloc_bytes_per_msg"] = ratio(float64(b.allocBytes-a.allocBytes), float64(msgs))
	t.values["runtime.gc_cpu_frac"] = ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU)
	t.values["runtime.sched_latency_us_p50"] = histDeltaMedian(a.sched, b.sched) * 1e6
}

// histDeltaMedian returns the median of the observations b holds beyond a,
// at the midpoint of the bucket where the cumulative count crosses half.
func histDeltaMedian(a, b *runtimemetrics.Float64Histogram) float64 {
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	var cum uint64
	for i := range b.Counts {
		cum += b.Counts[i] - a.Counts[i]
		if 2*cum >= total {
			lo, hi := b.Buckets[i], b.Buckets[i+1]
			switch {
			case math.IsInf(lo, -1):
				return max(hi, 0)
			case math.IsInf(hi, 1):
				return lo
			}
			return (lo + hi) / 2
		}
	}
	return 0
}

// peakRSSMB reads the process's VmHWM from /proc/self/status.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// envStamp identifies the build and the machine a result was measured on.
func envStamp() string {
	return fmt.Sprintf("env: commit=%s go=%s gomaxprocs=%d nproc=%d cpu=%q",
		commit(), runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel())
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
