package service_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ncc/internal/algo"
	"ncc/internal/comm"
	"ncc/internal/scenario"
	"ncc/internal/service"
)

// spin-test is a test-only algorithm that runs until the engine aborts it
// (cancellation or MaxRounds); it exists so the cancellation and drain tests
// have a genuinely in-flight run to kill. The per-round sleep keeps it from
// burning through MaxRounds while a test sets up.
func init() {
	algo.Register(algo.Algorithm[int]{
		Name: "spin-test",
		Desc: "test-only: spins through rounds until aborted",
		Node: func(s *comm.Session, in *algo.Input) int {
			for {
				s.Ctx.EndRound()
				time.Sleep(200 * time.Microsecond)
			}
		},
	})
}

const sweepJSON = `{"name":"e2e","algo":"mis","graph":{"family":"kforest","params":{"n":16,"k":2},"seed":1},"model":{"capfactor":4,"seed":1},"sweep":{"n":[16,24],"seeds":[1,2]}}`

const spinJSON = `{"name":"spin","algo":"spin-test","graph":{"family":"kforest","params":{"n":32,"k":2},"seed":1},"model":{"seed":1}}`

func newTestServer(t *testing.T, cfg service.Config) *httptest.Server {
	t.Helper()
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// localLines renders js exactly as `nccrun -json` does: one marshaled Record
// per line.
func localLines(t *testing.T, js string) []byte {
	t.Helper()
	s, err := scenario.Decode([]byte(js))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, rec := range scenario.Run(s) {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func submit(t *testing.T, base, js string) service.JobInfo {
	t.Helper()
	info, status := trySubmit(t, base, js)
	if status != http.StatusCreated {
		t.Fatalf("POST /v1/jobs: status %d", status)
	}
	return info
}

func trySubmit(t *testing.T, base, js string) (service.JobInfo, int) {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info service.JobInfo
	if resp.StatusCode == http.StatusCreated || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
	}
	return info, resp.StatusCode
}

func fetch(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func jobInfo(t *testing.T, base, id string) service.JobInfo {
	t.Helper()
	var info service.JobInfo
	if err := json.Unmarshal(fetch(t, base+"/v1/jobs/"+id), &info); err != nil {
		t.Fatal(err)
	}
	return info
}

func waitState(t *testing.T, base, id string, want service.State, timeout time.Duration) service.JobInfo {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		info := jobInfo(t, base, id)
		if info.State == want {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %q, want %q", id, info.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func metricValue(t *testing.T, base, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(string(fetch(t, base+"/metrics")), "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			if _, err := fmt.Sscanf(line, name+" %g", &v); err != nil {
				t.Fatalf("parsing metric line %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

// TestEndToEnd is the tentpole acceptance test: a sweep submitted over HTTP
// streams records byte-identical to a local execution, and a second identical
// submission is answered from the result cache (observable both in the
// JobInfo and the cache-hit counter) with, again, the identical bytes.
func TestEndToEnd(t *testing.T) {
	want := localLines(t, sweepJSON)
	ts := newTestServer(t, service.Config{WorkerBudget: 4, Executors: 2})

	info := submit(t, ts.URL, sweepJSON)
	if info.Cached {
		t.Fatal("first submission claims a cache hit")
	}
	got := fetch(t, ts.URL+"/v1/jobs/"+info.ID+"/records")
	if !bytes.Equal(got, want) {
		t.Fatalf("streamed records differ from local run:\nlocal:  %q\nremote: %q", want, got)
	}
	if n := metricValue(t, ts.URL, "nccd_cache_hits_total"); n != 0 {
		t.Fatalf("cache hits after first submission = %g, want 0", n)
	}

	info2 := submit(t, ts.URL, sweepJSON)
	if !info2.Cached {
		t.Fatal("identical re-submission was not served from the cache")
	}
	if info2.ID == info.ID {
		t.Fatal("re-submission reused the job id")
	}
	got2 := fetch(t, ts.URL+"/v1/jobs/"+info2.ID+"/records")
	if !bytes.Equal(got2, want) {
		t.Fatal("cached stream differs from the original")
	}
	if n := metricValue(t, ts.URL, "nccd_cache_hits_total"); n != 1 {
		t.Fatalf("nccd_cache_hits_total = %g, want 1", n)
	}

	// A semantically identical spelling — permuted sweep axes, default
	// capfactor written out differently, another display name — also hits.
	respun := `{"name":"respelled","algo":"mis","graph":{"params":{"k":2,"n":16},"family":"kforest","seed":1},"model":{"seed":1,"capfactor":4,"workers":3},"sweep":{"seeds":[2,1],"n":[24,16]}}`
	info3 := submit(t, ts.URL, respun)
	if !info3.Cached {
		t.Fatal("semantically identical re-spelling missed the cache")
	}

	var list struct {
		Jobs []service.JobInfo `json:"jobs"`
	}
	if err := json.Unmarshal(fetch(t, ts.URL+"/v1/jobs"), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 3 {
		t.Fatalf("job listing has %d entries, want 3", len(list.Jobs))
	}
}

// TestCancelInFlight cancels a job whose run never terminates on its own and
// checks that the cancellation propagates through the engine's abort path
// promptly — within one round, not at MaxRounds.
func TestCancelInFlight(t *testing.T) {
	ts := newTestServer(t, service.Config{WorkerBudget: 2, Executors: 1})
	info := submit(t, ts.URL, spinJSON)
	waitState(t, ts.URL, info.ID, service.StateRunning, 10*time.Second)
	time.Sleep(20 * time.Millisecond) // let the run get genuinely in flight

	start := time.Now()
	resp, err := http.Post(ts.URL+"/v1/jobs/"+info.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, ts.URL, info.ID, service.StateCanceled, 10*time.Second)
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancellation took %v, want well under the MaxRounds horizon", d)
	}
	// The record stream of a canceled job terminates (empty: the only run
	// was aborted before producing a record).
	if got := fetch(t, ts.URL+"/v1/jobs/"+info.ID+"/records"); len(got) != 0 {
		t.Fatalf("canceled job streamed %q, want empty", got)
	}
	if n := metricValue(t, ts.URL, "nccd_jobs_canceled_total"); n != 1 {
		t.Fatalf("nccd_jobs_canceled_total = %g, want 1", n)
	}
}

// TestCoalesceInFlight submits a scenario identical to one still running:
// the server must hand back the running job (200, same id) instead of
// executing the same computation twice.
func TestCoalesceInFlight(t *testing.T) {
	ts := newTestServer(t, service.Config{WorkerBudget: 2, Executors: 2})
	first := submit(t, ts.URL, spinJSON)
	waitState(t, ts.URL, first.ID, service.StateRunning, 10*time.Second)

	dup, status := trySubmit(t, ts.URL, spinJSON)
	if status != http.StatusOK {
		t.Fatalf("duplicate submission: status %d, want 200 (coalesced)", status)
	}
	if dup.ID != first.ID {
		t.Fatalf("duplicate submission got job %s, want the in-flight %s", dup.ID, first.ID)
	}
	if n := metricValue(t, ts.URL, "nccd_jobs_coalesced_total"); n != 1 {
		t.Fatalf("nccd_jobs_coalesced_total = %g, want 1", n)
	}

	// After cancellation the hash is no longer in flight: a fresh submission
	// makes a new job (the canceled one produced nothing cacheable).
	resp, err := http.Post(ts.URL+"/v1/jobs/"+first.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, ts.URL, first.ID, service.StateCanceled, 10*time.Second)
	again, status := trySubmit(t, ts.URL, spinJSON)
	if status != http.StatusCreated || again.ID == first.ID {
		t.Fatalf("post-cancel resubmission: status %d id %s, want a fresh 201 job", status, again.ID)
	}
	resp, err = http.Post(ts.URL+"/v1/jobs/"+again.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, ts.URL, again.ID, service.StateCanceled, 10*time.Second)
}

// TestCancelQueued cancels a job parked behind a running one: it must flip to
// canceled without ever executing.
func TestCancelQueued(t *testing.T) {
	ts := newTestServer(t, service.Config{WorkerBudget: 2, Executors: 1})
	spinning := submit(t, ts.URL, spinJSON)
	waitState(t, ts.URL, spinning.ID, service.StateRunning, 10*time.Second)
	queued := submit(t, ts.URL, sweepJSON)
	if st := jobInfo(t, ts.URL, queued.ID).State; st != service.StateQueued {
		t.Fatalf("second job state %q, want queued behind the single executor", st)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs/"+queued.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, ts.URL, queued.ID, service.StateCanceled, 5*time.Second)
	// Unblock the executor for cleanup.
	resp, err = http.Post(ts.URL+"/v1/jobs/"+spinning.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, ts.URL, spinning.ID, service.StateCanceled, 10*time.Second)
}

// cancelAndWait cancels the job id and waits until it reads canceled.
func cancelAndWait(t *testing.T, base, id string) {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs/"+id+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, base, id, service.StateCanceled, 10*time.Second)
}

// TestWaitingJobCountsQueued pins nccd_jobs_queued in both modes: a job that
// waits for a slot counts as queued until it gets one, whether it waits for
// the single executor behind a running job or for a worker to join the
// coordinator.
func TestWaitingJobCountsQueued(t *testing.T) {
	check := func(t *testing.T, base string, queued, running float64) {
		t.Helper()
		if n := metricValue(t, base, "nccd_jobs_queued"); n != queued {
			t.Errorf("nccd_jobs_queued = %g, want %g", n, queued)
		}
		if n := metricValue(t, base, "nccd_jobs_running"); n != running {
			t.Errorf("nccd_jobs_running = %g, want %g", n, running)
		}
	}
	t.Run("local", func(t *testing.T) {
		ts := newTestServer(t, service.Config{WorkerBudget: 2, Executors: 1})
		spinning := submit(t, ts.URL, spinJSON)
		waitState(t, ts.URL, spinning.ID, service.StateRunning, 10*time.Second)
		waiting := submit(t, ts.URL, sweepJSON)
		time.Sleep(50 * time.Millisecond) // the dispatcher has taken it by now
		if st := jobInfo(t, ts.URL, waiting.ID).State; st != service.StateQueued {
			t.Fatalf("second job state %q, want queued behind the single executor", st)
		}
		check(t, ts.URL, 1, 1)
		cancelAndWait(t, ts.URL, waiting.ID)
		cancelAndWait(t, ts.URL, spinning.ID)
	})
	t.Run("coordinator", func(t *testing.T) {
		coord := newCoordinator(t, service.Config{WorkerTTL: time.Minute})
		waiting := submit(t, coord.URL, sweepJSON)
		time.Sleep(50 * time.Millisecond) // the dispatcher has taken it by now
		if st := jobInfo(t, coord.URL, waiting.ID).State; st != service.StateQueued {
			t.Fatalf("job state with no workers = %q, want queued", st)
		}
		check(t, coord.URL, 1, 0)
		cancelAndWait(t, coord.URL, waiting.ID)
		check(t, coord.URL, 0, 0)
	})
}

// TestFullQueueAnswers429 fills a one-job queue behind a running job: a
// further job and a campaign are both refused with 429 and Retry-After, the
// answer a client retries, not the 503 of a draining daemon.
func TestFullQueueAnswers429(t *testing.T) {
	ts := newTestServer(t, service.Config{WorkerBudget: 2, Executors: 1, QueueLimit: 1})
	spinning := submit(t, ts.URL, spinJSON)
	waitState(t, ts.URL, spinning.ID, service.StateRunning, 10*time.Second)
	queued := submit(t, ts.URL, sweepJSON)

	other := strings.Replace(sweepJSON, `"seeds":[1,2]`, `"seeds":[3]`, 1)
	campaignJSON := fmt.Sprintf(`{"name":"full","entries":[{"baseline":"none","scenario":%s}]}`, other)
	for _, post := range []struct{ path, body string }{
		{"/v1/jobs", other},
		{"/v1/campaigns", campaignJSON},
	} {
		resp, err := http.Post(ts.URL+post.path, "application/json", strings.NewReader(post.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "1" {
			t.Errorf("POST %s with the queue full: status %d, Retry-After %q, want 429 and 1",
				post.path, resp.StatusCode, resp.Header.Get("Retry-After"))
		}
	}
	cancelAndWait(t, ts.URL, queued.ID)
	cancelAndWait(t, ts.URL, spinning.ID)
}

// TestQueuedStreamSendsHeaders pins that a record stream's headers go out
// before the job's first line. A job queued behind a slow one has no line
// for as long as that one runs, and a client that bounds its wait for
// headers (the cluster transport waits 15 s) must not time out meanwhile.
func TestQueuedStreamSendsHeaders(t *testing.T) {
	ts := newTestServer(t, service.Config{WorkerBudget: 2, Executors: 1})
	spinning := submit(t, ts.URL, spinJSON)
	waitState(t, ts.URL, spinning.ID, service.StateRunning, 10*time.Second)
	queued := submit(t, ts.URL, sweepJSON)
	defer func() {
		for _, id := range []string{queued.ID, spinning.ID} {
			resp, err := http.Post(ts.URL+"/v1/jobs/"+id+"/cancel", "application/json", nil)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
		waitState(t, ts.URL, spinning.ID, service.StateCanceled, 10*time.Second)
	}()

	tr := &http.Transport{ResponseHeaderTimeout: 200 * time.Millisecond}
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr}).Get(ts.URL + "/v1/jobs/" + queued.ID + "/records")
	if err != nil {
		t.Fatalf("record stream of a queued job: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("record stream status %d, want 200", resp.StatusCode)
	}
	if st := jobInfo(t, ts.URL, queued.ID).State; st != service.StateQueued {
		t.Fatalf("job state %q, want still queued behind the single executor", st)
	}
}

// TestDiskCacheSurvivesRestart runs a sweep under one server, then brings up
// a fresh server over the same cache directory and checks the identical
// submission is answered from disk, byte-identically.
func TestDiskCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	want := localLines(t, sweepJSON)

	ts1 := newTestServer(t, service.Config{WorkerBudget: 4, CacheDir: dir})
	info := submit(t, ts1.URL, sweepJSON)
	if got := fetch(t, ts1.URL+"/v1/jobs/"+info.ID+"/records"); !bytes.Equal(got, want) {
		t.Fatal("first server streamed records differing from local run")
	}
	ts1.Close()

	ts2 := newTestServer(t, service.Config{WorkerBudget: 4, CacheDir: dir})
	info2 := submit(t, ts2.URL, sweepJSON)
	if !info2.Cached {
		t.Fatal("restarted server missed the disk cache")
	}
	if got := fetch(t, ts2.URL+"/v1/jobs/"+info2.ID+"/records"); !bytes.Equal(got, want) {
		t.Fatal("disk-cached stream differs from the original")
	}
}

// TestCorruptDiskCacheReexecutes damages a persisted entry — one flipped
// byte in the records blob, a truncated trace blob — and checks a fresh
// server over the directory treats it as a miss: it re-executes with streams
// byte-identical to a local run, and the re-put repairs the blobs so the next
// fresh server answers from disk again.
func TestCorruptDiskCacheReexecutes(t *testing.T) {
	dir := t.TempDir()
	want, wantTrace := localLines(t, sweepJSON), localTrace(t, sweepJSON)
	blobPath := func(stream []byte) string {
		sum := sha256.Sum256(stream)
		return filepath.Join(dir, hex.EncodeToString(sum[:])+".ndjson")
	}
	serve := func() (service.JobInfo, []byte, []byte) {
		ts := newTestServer(t, service.Config{WorkerBudget: 4, CacheDir: dir})
		defer ts.Close()
		info := submit(t, ts.URL, sweepJSON)
		records := fetch(t, ts.URL+"/v1/jobs/"+info.ID+"/records")
		waitState(t, ts.URL, info.ID, service.StateDone, 60*time.Second)
		trace, _, _ := fetchTrace(t, ts.URL, info.ID)
		return info, records, trace
	}
	serve()

	rec, err := os.ReadFile(blobPath(want))
	if err != nil {
		t.Fatalf("records blob not at its content address: %v", err)
	}
	rec[len(rec)/2] ^= 1
	if err := os.WriteFile(blobPath(want), rec, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(blobPath(wantTrace), int64(len(wantTrace)/2)); err != nil {
		t.Fatalf("trace blob not at its content address: %v", err)
	}

	for i, wantCached := range []bool{false, true} {
		info, records, trace := serve()
		if info.Cached != wantCached {
			t.Fatalf("server %d over the damaged dir: cached=%v, want %v", i+2, info.Cached, wantCached)
		}
		if !bytes.Equal(records, want) || !bytes.Equal(trace, wantTrace) {
			t.Fatalf("server %d: records/trace differ from the local run", i+2)
		}
	}
}

// TestSubmitRejectsBadScenarios checks the strict decoding and validation
// surface: typos fail with their field path, unknown algorithms with the
// registry error — and nothing is enqueued for either.
func TestSubmitRejectsBadScenarios(t *testing.T) {
	ts := newTestServer(t, service.Config{})
	cases := []struct {
		js   string
		want string
	}{
		{`{"algo":"mis","graph":{"family":"kforest"},"model":{"capfator":4}}`, "model.capfator"},
		{`{"algo":"nope","graph":{"family":"kforest"}}`, "unknown algorithm"},
		{`{"algo":"mis","graph":{"family":"nope"}}`, "unknown graph family"},
		{`{"algo":"mis","graph":{"family":"kforest","params":{"zap":1}}}`, "unknown params zap"},
		{`not json`, "invalid character"},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.js))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("submission %q: status %d, want 400", tc.js, resp.StatusCode)
		}
		if !strings.Contains(string(body), tc.want) {
			t.Fatalf("submission %q: error %q does not mention %q", tc.js, body, tc.want)
		}
	}
	if n := metricValue(t, ts.URL, "nccd_jobs_submitted_total"); n != 0 {
		t.Fatalf("rejected submissions counted: %g", n)
	}
}

// TestJobRetention submits more jobs than the retention bound: the oldest
// terminal jobs are forgotten (404, gone from the listing) while their
// results survive in the cache.
func TestJobRetention(t *testing.T) {
	ts := newTestServer(t, service.Config{WorkerBudget: 2, RetainJobs: 2})
	mk := func(seed int) string {
		return fmt.Sprintf(`{"algo":"mis","graph":{"family":"kforest","params":{"n":12,"k":2},"seed":%d},"model":{"seed":%d}}`, seed, seed)
	}
	var ids []string
	for seed := 1; seed <= 4; seed++ {
		info := submit(t, ts.URL, mk(seed))
		waitState(t, ts.URL, info.ID, service.StateDone, 30*time.Second)
		ids = append(ids, info.ID)
	}
	var list struct {
		Jobs []service.JobInfo `json:"jobs"`
	}
	if err := json.Unmarshal(fetch(t, ts.URL+"/v1/jobs"), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) > 2 {
		t.Fatalf("listing holds %d jobs, want <= RetainJobs = 2", len(list.Jobs))
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pruned job %s: status %d, want 404", ids[0], resp.StatusCode)
	}
	// The pruned job's result is still content-addressed: resubmitting its
	// scenario is a cache hit, not a re-execution.
	if info := submit(t, ts.URL, mk(1)); !info.Cached {
		t.Fatal("pruned job's scenario missed the cache")
	}
}

// TestDrain covers graceful shutdown: draining refuses new submissions, and
// a job outliving the grace period is canceled through the abort path rather
// than holding the drain forever.
func TestDrain(t *testing.T) {
	svc, err := service.New(service.Config{WorkerBudget: 2, Executors: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	info := submit(t, ts.URL, spinJSON)
	waitState(t, ts.URL, info.ID, service.StateRunning, 10*time.Second)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = svc.Drain(ctx)
	if err == nil {
		t.Fatal("drain of a spinning job returned nil before the deadline forced cancellation")
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("drain took %v despite the cancellation fallback", d)
	}
	if st := jobInfo(t, ts.URL, info.ID).State; st != service.StateCanceled {
		t.Fatalf("spinning job state after drain: %q, want canceled", st)
	}
	if _, status := trySubmit(t, ts.URL, sweepJSON); status != http.StatusServiceUnavailable {
		t.Fatalf("submission during drain: status %d, want 503", status)
	}
}
