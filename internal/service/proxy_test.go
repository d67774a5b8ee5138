package service

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ncc/internal/blob"
	"ncc/internal/obs"
	"ncc/internal/scenario"
)

// TestFetchTrace drives the coordinator's trace proxy against a stub worker.
// In memory, blank and whitespace-only lines are skipped, a last line
// without its newline is kept, and a retried dispatch skips as many
// non-blank lines as the job already published. With a blob store, the
// trace is stored and referenced, once.
func TestFetchTrace(t *testing.T) {
	var mu sync.Mutex
	body := ""
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/jobs/w7/trace" {
			http.NotFound(w, r)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprint(w, body)
	}))
	defer worker.Close()
	serve := func(s string) {
		mu.Lock()
		body = s
		mu.Unlock()
	}

	b := &RemoteBackend{m: newMetrics()}
	w := &remoteWorker{name: "w", url: worker.URL}

	j := newJob("j1", "sha256:feed", scenario.Scenario{})
	serve("{\"t\":\"h\"}\n\n{\"t\":\"r\"}\n  \t\n{\"t\":\"e\"}")
	if err := b.fetchTrace(context.Background(), j, w, "w7"); err != nil {
		t.Fatal(err)
	}
	trace := j.result().trace
	if s := string(bytes.Join(trace, []byte("|"))); s != `{"t":"h"}|{"t":"r"}|{"t":"e"}` {
		t.Errorf("first attempt published %q", s)
	}
	if n := b.m.traceLinesProduced.Load(); n != 3 {
		t.Errorf("traceLinesProduced = %d, want 3", n)
	}

	// A retry: the previous attempt published two lines; the replayed stream
	// (with a blank line inside the skipped prefix) contributes only the rest.
	j = newJob("j1", "sha256:feed", scenario.Scenario{})
	j.append(traceLog, []byte("a"), []byte("b"))
	serve("a\n\nb\nc\nd\n")
	if err := b.fetchTrace(context.Background(), j, w, "w7"); err != nil {
		t.Fatal(err)
	}
	trace = j.result().trace
	if s := string(bytes.Join(trace, []byte("|"))); s != "a|b|c|d" {
		t.Errorf("retry published %q, want a|b|c|d", s)
	}
	if n := b.m.traceLinesProduced.Load(); n != 5 {
		t.Errorf("traceLinesProduced = %d after the retry, want 5", n)
	}

	// A worker that answers with an error status fails the attempt.
	if err := b.fetchTrace(context.Background(), j, w, "nope"); err == nil {
		t.Error("fetchTrace of a missing worker job succeeded")
	}

	// With a blob store, a canonical stream goes straight into it: the job
	// holds a reference with the line count and no lines, and a retry keeps
	// the one stored trace.
	store, err := blob.Open(t.TempDir(), ".ndjson")
	if err != nil {
		t.Fatal(err)
	}
	b = &RemoteBackend{m: newMetrics(), traces: store, cfg: Config{}.withDefaults()}
	const canonical = "{\"t\":\"h\"}\n{\"t\":\"r\"}\n{\"t\":\"e\"}\n"
	j = newJob("j2", "sha256:feed", scenario.Scenario{})
	serve(canonical)
	for attempt := 1; attempt <= 2; attempt++ {
		if err := b.fetchTrace(context.Background(), j, w, "w7"); err != nil {
			t.Fatal(err)
		}
		res := j.result()
		if res.trace != nil || res.traceBlob.lines != 3 || j.Info().Trace != 3 {
			t.Fatalf("attempt %d: %d lines in memory, ref %+v, JobInfo.Trace %d; want a 3-line ref", attempt, len(res.trace), res.traceBlob, j.Info().Trace)
		}
		if data, err := store.Get(res.traceBlob.hash); err != nil || string(data) != canonical {
			t.Fatalf("attempt %d: blob holds %q, %v", attempt, data, err)
		}
	}
	if n := b.m.traceLinesProduced.Load(); n != 3 {
		t.Errorf("traceLinesProduced = %d after a stored trace and a retry, want 3", n)
	}

	// A stream that is not canonical NDJSON takes no address: the trace is
	// kept in memory, normalized as without a store.
	j = newJob("j3", "sha256:feed", scenario.Scenario{})
	serve("{\"t\":\"h\"}\n\n{\"t\":\"e\"}")
	if err := b.fetchTrace(context.Background(), j, w, "w7"); err != nil {
		t.Fatal(err)
	}
	if res := j.result(); res.traceBlob.ok() || string(bytes.Join(res.trace, []byte("|"))) != `{"t":"h"}|{"t":"e"}` {
		t.Fatalf("non-canonical stream: ref %+v, lines %q", res.traceBlob, res.trace)
	}
}

// TestCoordinatorKeepsTraceReference runs a job through a coordinator with a
// cache directory: the finished job and its memory-cache entry hold the
// trace as a blob reference and no lines, JobInfo.Trace still gives the line
// count, and the blob is the trace's canonical bytes.
func TestCoordinatorKeepsTraceReference(t *testing.T) {
	worker, err := New(Config{WorkerBudget: 2, Executors: 1})
	if err != nil {
		t.Fatal(err)
	}
	wts := httptest.NewServer(worker.Handler())
	defer wts.Close()
	coord, err := NewCoordinator(Config{WorkerTTL: time.Minute, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		coord.Drain(ctx)
	}()
	coord.cluster.reg.register("w1", wts.URL, 1)

	sc, err := scenario.Decode([]byte(`{"algo":"mis","graph":{"family":"kforest","params":{"n":12,"k":2},"seed":7},"model":{"seed":7},"sweep":{"seeds":[1,2]}}`))
	if err != nil {
		t.Fatal(err)
	}
	hash, err := sc.Hash()
	if err != nil {
		t.Fatal(err)
	}
	j, err := coord.admit(sc, hash)
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, _, terminal, changed := j.next(recordLog, 0)
		if terminal {
			break
		}
		select {
		case <-changed:
		case <-time.After(30 * time.Second):
			t.Fatal("job never finished")
		}
	}
	col := &obs.Collector{}
	for _, c := range sc.Expand() {
		if _, err := scenario.RunTraced(c, col, scenario.RunOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	want := col.Bytes()
	wantLines := bytes.Count(want, newline)

	res := j.result()
	if info := j.Info(); info.State != StateDone || info.Trace != wantLines {
		t.Fatalf("job %+v, want done with %d trace lines", info, wantLines)
	}
	if res.trace != nil || !res.traceBlob.ok() || res.traceBlob.lines != wantLines {
		t.Fatalf("job holds %d trace lines and ref %+v; want no lines and a %d-line ref", len(res.trace), res.traceBlob, wantLines)
	}
	if data, err := coord.cache.disk.Get(res.traceBlob.hash); err != nil || !bytes.Equal(data, want) {
		t.Fatalf("trace blob: %d bytes, %v; want the local trace's %d", len(data), err, len(want))
	}
	e, ok := coord.cache.get(hash)
	if !ok || e.trace != nil || e.traceBlob != res.traceBlob {
		t.Fatalf("cache entry: hit %v, %d trace lines, ref %+v; want the job's ref and no lines", ok, len(e.trace), e.traceBlob)
	}
}

// TestHistogramRender pins the exposition of per-bucket counts as
// Prometheus's cumulative buckets, values on a bound included, and that
// concurrent observers keep every bucket at or below +Inf.
func TestHistogramRender(t *testing.T) {
	h := newHistogram([]float64{1e-3, 1e-2, 0.1})
	for _, v := range []float64{0.0005, 0.001, 0.005, 0.05, 0.2, 5} {
		h.observe(v)
	}
	var buf bytes.Buffer
	h.render(&buf, "x", "help")
	want := `# HELP x help
# TYPE x histogram
x_bucket{le="0.001"} 2
x_bucket{le="0.01"} 3
x_bucket{le="0.1"} 4
x_bucket{le="+Inf"} 6
x_sum 5.2565
x_count 6
`
	if buf.String() != want {
		t.Errorf("render:\n%s\nwant:\n%s", buf.String(), want)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.observe(float64(i%4) * 0.004)
			}
		}()
	}
	for i := 0; i < 50; i++ {
		buf.Reset()
		h.render(&buf, "x", "help")
		var le1, le2, le3, inf int64
		var sum float64
		var count int64
		if _, err := fmt.Sscanf(buf.String(), "# HELP x help\n# TYPE x histogram\n"+
			"x_bucket{le=\"0.001\"} %d\nx_bucket{le=\"0.01\"} %d\nx_bucket{le=\"0.1\"} %d\n"+
			"x_bucket{le=\"+Inf\"} %d\nx_sum %g\nx_count %d\n", &le1, &le2, &le3, &inf, &sum, &count); err != nil {
			t.Fatalf("scan %q: %v", buf.String(), err)
		}
		if le1 > le2 || le2 > le3 || le3 > inf || inf != count {
			t.Fatalf("non-monotone scrape:\n%s", buf.String())
		}
	}
	wg.Wait()
	if got := h.count.Load(); got != 4006 {
		t.Errorf("count = %d, want 4006", got)
	}
}
