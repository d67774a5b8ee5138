package service

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"ncc/internal/scenario"
)

// TestFetchTrace drives the coordinator's trace proxy against a stub worker:
// blank and whitespace-only lines are skipped, a last line without its
// newline is kept, and a retried dispatch skips as many non-blank lines as
// the job already published.
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
	_, trace := j.logs()
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
	_, trace = j.logs()
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
