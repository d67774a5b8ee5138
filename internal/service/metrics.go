package service

import (
	"fmt"
	"io"
	"math"
	runtimemetrics "runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// metrics is the daemon's counter set, rendered at /metrics in the Prometheus
// text exposition format. Engine figures (rounds, messages, words) are fed
// round by round by the probe LocalBackend attaches to every engine run;
// rounds/s is measured over the window since the previous scrape, so a
// dashboard polling /metrics sees the live round rate, not a lifetime
// average.
type metrics struct {
	start time.Time

	jobsSubmitted atomic.Int64
	jobsCoalesced atomic.Int64
	jobsDone      atomic.Int64
	jobsFailed    atomic.Int64
	jobsCanceled  atomic.Int64
	jobsQueued    atomic.Int64 // gauge
	jobsRunning   atomic.Int64 // gauge

	recordsProduced    atomic.Int64
	recordsStreamed    atomic.Int64
	traceLinesProduced atomic.Int64
	traceLinesStreamed atomic.Int64

	// Engine traffic of locally executed rounds; the round count is
	// roundDuration's.
	engineMessages atomic.Int64
	engineWords    atomic.Int64

	// Latency histograms. Observation is lock-cheap (three atomic adds:
	// count, one bucket, sum); rendering walks the buckets under the
	// Prometheus rules (cumulative _bucket series with +Inf, plus _sum and
	// _count).
	roundDuration   *histogram // seconds per engine round, local execution
	jobLatency      *histogram // submission -> terminal, executed jobs
	dispatchLatency *histogram // coordinator: dispatch -> worker stream done

	cacheHits         atomic.Int64
	cacheMisses       atomic.Int64
	cacheWriteErrors  atomic.Int64
	dispatchCacheHits atomic.Int64 // hits found at dispatch time

	campaignsSubmitted atomic.Int64
	campaignsDone      atomic.Int64
	campaignsFailed    atomic.Int64

	mu         sync.Mutex
	lastScrape time.Time
	lastRounds int64

	// Per-worker dispatch counters, coordinator mode only. Counters persist
	// after a worker expires (Prometheus counters must never reset while the
	// process lives); the live set is reported separately as a gauge.
	wmu       sync.Mutex
	perWorker map[string]*workerCounters
}

// workerCounters label the coordinator's dispatch traffic by worker.
type workerCounters struct {
	jobs    atomic.Int64 // dispatch attempts sent to this worker
	records atomic.Int64 // record lines proxied back from this worker
}

// worker returns (creating on first use) the counter set for one worker name.
func (m *metrics) worker(name string) *workerCounters {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	wc, ok := m.perWorker[name]
	if !ok {
		wc = &workerCounters{}
		m.perWorker[name] = wc
	}
	return wc
}

func newMetrics() *metrics {
	return &metrics{
		start:           time.Now(),
		perWorker:       map[string]*workerCounters{},
		roundDuration:   newHistogram(roundDurationBuckets),
		jobLatency:      newHistogram(latencyBuckets),
		dispatchLatency: newHistogram(latencyBuckets),
	}
}

// Bucket bounds in seconds. Engine rounds are microseconds to milliseconds;
// job and dispatch latencies are milliseconds to minutes.
var (
	roundDurationBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10}
	latencyBuckets       = []float64{1e-3, 1e-2, 0.1, 0.5, 1, 5, 30, 120, 600}
)

// histogram is a fixed-bucket Prometheus histogram. counts[i] tallies the
// observations in (bounds[i-1], bounds[i]]; observations beyond the last
// bound only land in the implicit +Inf bucket (count). One bucket per
// observation keeps observe at three atomic adds however many bounds there
// are; render sums the buckets into Prometheus's cumulative form. sumMicros
// keeps the running sum as an integer so it can live in an atomic;
// microsecond resolution is far below bucket granularity.
type histogram struct {
	bounds    []float64
	counts    []atomic.Int64
	count     atomic.Int64
	sumMicros atomic.Int64
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds))}
}

// observe records one value (seconds). count is added before the bucket and
// render loads it after the buckets, so a scrape never shows a bucket above
// +Inf.
func (h *histogram) observe(v float64) {
	h.count.Add(1)
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			break
		}
	}
	h.sumMicros.Add(int64(math.Round(v * 1e6)))
}

// observeSince records the elapsed time since t0.
func (h *histogram) observeSince(t0 time.Time) {
	h.observe(time.Since(t0).Seconds())
}

// render writes the histogram in Prometheus text exposition format: the
// cumulative bucket counts, ending with the mandatory +Inf bucket equal to
// _count.
func (h *histogram) render(w io.Writer, name, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatBound(b), cum)
	}
	count := h.count.Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, count)
	fmt.Fprintf(w, "%s_sum %g\n", name, float64(h.sumMicros.Load())/1e6)
	fmt.Fprintf(w, "%s_count %d\n", name, count)
}

// formatBound renders a bucket bound the way Prometheus clients expect
// (shortest float representation).
func formatBound(b float64) string {
	return fmt.Sprintf("%g", b)
}

// roundsRate returns the engine round total and the rounds/s rate since the
// previous scrape (since startup, on the first).
func (m *metrics) roundsRate() (total int64, perSec float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := time.Now()
	total = m.roundDuration.count.Load()
	since := m.lastScrape
	if since.IsZero() {
		since = m.start
	}
	if dt := now.Sub(since).Seconds(); dt > 0 {
		perSec = float64(total-m.lastRounds) / dt
	}
	m.lastScrape = now
	m.lastRounds = total
	return total, perSec
}

// render writes the exposition text. budget/free describe the backend's
// capacity (engine-worker tokens locally, cluster job slots on a
// coordinator); entries is the in-memory cache size. liveWorkers is nil
// outside coordinator mode; on a coordinator it carries the current worker
// registry snapshot and enables the cluster section (workers_live gauge plus
// per-worker job/record counters).
func (m *metrics) render(w io.Writer, budget, free, entries int, liveWorkers []WorkerInfo, coordinator bool) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter("nccd_jobs_submitted_total", "Scenario submissions accepted.", m.jobsSubmitted.Load())
	counter("nccd_jobs_coalesced_total", "Submissions answered by an identical in-flight job.", m.jobsCoalesced.Load())
	counter("nccd_jobs_done_total", "Jobs that ran to completion.", m.jobsDone.Load())
	counter("nccd_jobs_failed_total", "Jobs that failed internally.", m.jobsFailed.Load())
	counter("nccd_jobs_canceled_total", "Jobs canceled before completion.", m.jobsCanceled.Load())
	gauge("nccd_jobs_queued", "Jobs waiting for an executor or a worker slot.", float64(m.jobsQueued.Load()))
	gauge("nccd_jobs_running", "Jobs currently executing.", float64(m.jobsRunning.Load()))

	counter("nccd_records_produced_total", "Sweep records produced by executed runs.", m.recordsProduced.Load())
	counter("nccd_records_streamed_total", "Record lines written to streaming clients.", m.recordsStreamed.Load())
	counter("nccd_trace_lines_produced_total", "Telemetry trace lines produced by executed runs.", m.traceLinesProduced.Load())
	counter("nccd_trace_lines_streamed_total", "Trace lines written to streaming clients.", m.traceLinesStreamed.Load())

	m.roundDuration.render(w, "nccd_round_duration_seconds", "Wall-clock duration of locally executed engine rounds.")
	m.jobLatency.render(w, "nccd_job_latency_seconds", "Submission-to-terminal latency of executed (non-cached) jobs.")
	if coordinator {
		m.dispatchLatency.render(w, "nccd_dispatch_latency_seconds", "Dispatch-to-completion latency of jobs proxied to workers.")
	}

	hits, misses := m.cacheHits.Load(), m.cacheMisses.Load()
	counter("nccd_cache_hits_total", "Submissions served from the result cache.", hits)
	counter("nccd_cache_misses_total", "Submissions that had to execute.", misses)
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	gauge("nccd_cache_hit_ratio", "Lifetime cache hit ratio.", ratio)
	counter("nccd_cache_write_errors_total", "Failed disk-cache writes (entries stay in memory).", m.cacheWriteErrors.Load())
	counter("nccd_dispatch_cache_hits_total", "Queued jobs completed at dispatch, without an executor or a worker slot, from a cache result that landed after their admission.", m.dispatchCacheHits.Load())
	gauge("nccd_cache_entries", "Result-cache entries held in memory.", float64(entries))

	counter("nccd_campaigns_submitted_total", "Campaign specs accepted.", m.campaignsSubmitted.Load())
	counter("nccd_campaigns_done_total", "Campaigns whose report was built.", m.campaignsDone.Load())
	counter("nccd_campaigns_failed_total", "Campaigns aborted by a failed or canceled unit.", m.campaignsFailed.Load())

	gauge("nccd_worker_budget", "Global engine-worker budget shared across jobs.", float64(budget))
	gauge("nccd_workers_free", "Engine workers currently unassigned.", float64(free))

	if coordinator {
		gauge("nccd_workers_live", "Worker daemons currently registered and within their heartbeat TTL.", float64(len(liveWorkers)))
		m.wmu.Lock()
		names := make([]string, 0, len(m.perWorker))
		for name := range m.perWorker {
			names = append(names, name)
		}
		sort.Strings(names)
		if len(names) > 0 {
			fmt.Fprintf(w, "# HELP nccd_worker_jobs_total Job dispatch attempts sent to each worker.\n# TYPE nccd_worker_jobs_total counter\n")
			for _, name := range names {
				fmt.Fprintf(w, "nccd_worker_jobs_total{worker=%q} %d\n", name, m.perWorker[name].jobs.Load())
			}
			fmt.Fprintf(w, "# HELP nccd_worker_records_total Record lines proxied back from each worker.\n# TYPE nccd_worker_records_total counter\n")
			for _, name := range names {
				fmt.Fprintf(w, "nccd_worker_records_total{worker=%q} %d\n", name, m.perWorker[name].records.Load())
			}
		}
		m.wmu.Unlock()
	}

	rounds, rate := m.roundsRate()
	counter("nccd_engine_rounds_total", "Communication rounds completed by the engine.", rounds)
	gauge("nccd_engine_rounds_per_second", "Engine round rate since the previous scrape.", rate)
	counter("nccd_engine_messages_total", "Messages accepted for transmission.", m.engineMessages.Load())
	counter("nccd_engine_words_total", "Payload words accepted for transmission.", m.engineWords.Load())

	heap, goroutines, gcPause := runtimeGauges()
	gauge("nccd_heap_bytes", "Live heap memory (runtime/metrics heap objects).", heap)
	gauge("nccd_goroutines", "Goroutines currently live, including the node coroutines suspended in the engine's spare between runs (up to twice the last run's node count).", goroutines)
	gauge("nccd_gc_pause_p99_seconds", "Approximate p99 stop-the-world GC pause since process start.", gcPause)

	gauge("nccd_uptime_seconds", "Seconds since the daemon started.", time.Since(m.start).Seconds())
}

// runtimeGauges samples the runtime/metrics sources surfaced on /metrics:
// live heap bytes, goroutine count, and an approximate p99 GC pause derived
// from the runtime's pause-duration histogram.
func runtimeGauges() (heapBytes, goroutines, gcPauseP99 float64) {
	samples := []runtimemetrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/sched/goroutines:goroutines"},
		{Name: "/gc/pauses:seconds"},
	}
	runtimemetrics.Read(samples)
	if samples[0].Value.Kind() == runtimemetrics.KindUint64 {
		heapBytes = float64(samples[0].Value.Uint64())
	}
	if samples[1].Value.Kind() == runtimemetrics.KindUint64 {
		goroutines = float64(samples[1].Value.Uint64())
	}
	if samples[2].Value.Kind() == runtimemetrics.KindFloat64Histogram {
		gcPauseP99 = histQuantile(samples[2].Value.Float64Histogram(), 0.99)
	}
	return heapBytes, goroutines, gcPauseP99
}

// histQuantile approximates a quantile of a runtime Float64Histogram by the
// upper bound of the bucket where the cumulative count crosses q.
func histQuantile(h *runtimemetrics.Float64Histogram, q float64) float64 {
	if h == nil || len(h.Counts) == 0 {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	threshold := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= threshold {
			// Buckets[i+1] is bucket i's upper bound; the last bucket's bound
			// may be +Inf, in which case its lower bound is the best finite
			// answer.
			hi := h.Buckets[i+1]
			if math.IsInf(hi, 1) {
				return h.Buckets[i]
			}
			return hi
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}
