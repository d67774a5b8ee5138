package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ncc/internal/algo"
	"ncc/internal/comm"
	"ncc/internal/service"
)

// slow-test is a test-only algorithm with a deterministic result and a
// deliberately slow wall clock (a per-round sleep over a fixed round count),
// so the failover test can kill a worker while a sweep is genuinely mid-run
// and still compare the final stream byte-for-byte against a local run.
func init() {
	algo.Register(algo.Algorithm[int]{
		Name: "slow-test",
		Desc: "test-only: fixed round count with a per-round sleep",
		Node: func(s *comm.Session, in *algo.Input) int {
			for r := 0; r < 30; r++ {
				s.Ctx.EndRound()
				time.Sleep(time.Millisecond)
			}
			return 0
		},
	})
}

const slowSweepJSON = `{"name":"slow","algo":"slow-test","graph":{"family":"kforest","params":{"n":16,"k":2},"seed":1},"model":{"capfactor":4,"seed":1},"sweep":{"seeds":[1,2,3,4,5,6,7,8]}}`

// faultSweepJSON carries a fault-plan block: fault schedules are derived from
// each run's seed, so the cluster stream (including redispatch and cache
// replay) must stay byte-identical to a local run even with nodes crashing.
const faultSweepJSON = `{"name":"faulted","algo":"mis","graph":{"family":"kforest","params":{"n":32,"k":2},"seed":7},"model":{"seed":11,"maxrounds":131072},"faults":{"models":[{"model":"crash","params":{"count":3,"round":20}}]},"sweep":{"seeds":[1,2,3]}}`

func newCoordinator(t *testing.T, cfg service.Config) *httptest.Server {
	t.Helper()
	svc, err := service.NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		svc.Drain(ctx)
		ts.Close()
	})
	return ts
}

// newCluster starts a coordinator with cfg and two registered workers of
// one job slot each, and returns the coordinator's URL.
func newCluster(t *testing.T, cfg service.Config) string {
	t.Helper()
	coord := newCoordinator(t, cfg)
	for _, name := range []string{"w1", "w2"} {
		w := newTestServer(t, service.Config{WorkerBudget: 2, Executors: 1})
		registerWorker(t, coord.URL, name, w.URL, 1)
	}
	return coord.URL
}

// registerWorker registers a worker daemon with the coordinator directly (the
// test plays the heartbeat loop, so a "crashed" worker stays registered until
// the coordinator notices on its own).
func registerWorker(t *testing.T, coord, name, url string, capacity int) {
	t.Helper()
	body := fmt.Sprintf(`{"name":%q,"url":%q,"capacity":%d}`, name, url, capacity)
	resp, err := http.Post(coord+"/v1/workers", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("registering %s: status %d", name, resp.StatusCode)
	}
}

func waitRecords(t *testing.T, base, id string, want int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if info := jobInfo(t, base, id); info.Records >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %d records", id, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClusterEndToEnd is the basic cluster acceptance path: a coordinator
// with two registered workers streams a submitted sweep byte-identical to a
// local run, reports both workers live with per-worker dispatch counters, and
// answers the identical re-submission from its own result cache.
func TestClusterEndToEnd(t *testing.T) {
	coord := newCoordinator(t, service.Config{WorkerTTL: time.Minute})
	w1 := newTestServer(t, service.Config{WorkerBudget: 2, Executors: 1})
	w2 := newTestServer(t, service.Config{WorkerBudget: 2, Executors: 1})
	registerWorker(t, coord.URL, "w1", w1.URL, 1)
	registerWorker(t, coord.URL, "w2", w2.URL, 1)

	want := localLines(t, sweepJSON)
	info := submit(t, coord.URL, sweepJSON)
	got := fetch(t, coord.URL+"/v1/jobs/"+info.ID+"/records")
	if !bytes.Equal(got, want) {
		t.Fatalf("cluster stream differs from local run:\nlocal:  %q\ncluster: %q", want, got)
	}
	if n := metricValue(t, coord.URL, "nccd_workers_live"); n != 2 {
		t.Fatalf("nccd_workers_live = %g, want 2", n)
	}
	// Exactly one dispatch attempt happened, attributed to one worker.
	metrics := string(fetch(t, coord.URL+"/metrics"))
	if !strings.Contains(metrics, `nccd_worker_jobs_total{worker="w1"} 1`) &&
		!strings.Contains(metrics, `nccd_worker_jobs_total{worker="w2"} 1`) {
		t.Fatalf("no per-worker dispatch counter at 1:\n%s", metrics)
	}

	info2 := submit(t, coord.URL, sweepJSON)
	if !info2.Cached {
		t.Fatal("identical re-submission missed the coordinator's result cache")
	}
	if got2 := fetch(t, coord.URL+"/v1/jobs/"+info2.ID+"/records"); !bytes.Equal(got2, want) {
		t.Fatal("cached cluster stream differs from the original")
	}
}

// TestClusterFaultedSweepByteIdentity pins the fault-model determinism
// contract across the service plane: a sweep whose runs crash nodes under a
// seeded fault plan streams byte-identical records from the cluster and from
// the coordinator's cache replay, because schedules derive from the run seed
// rather than from wall-clock or executor identity. Every record must carry a
// degradation report with a clean survivor verdict.
func TestClusterFaultedSweepByteIdentity(t *testing.T) {
	coord := newCoordinator(t, service.Config{WorkerTTL: time.Minute})
	w1 := newTestServer(t, service.Config{WorkerBudget: 2, Executors: 2})
	w2 := newTestServer(t, service.Config{WorkerBudget: 2, Executors: 2})
	registerWorker(t, coord.URL, "w1", w1.URL, 1)
	registerWorker(t, coord.URL, "w2", w2.URL, 1)

	want := localLines(t, faultSweepJSON)
	info := submit(t, coord.URL, faultSweepJSON)
	got := fetch(t, coord.URL+"/v1/jobs/"+info.ID+"/records")
	if !bytes.Equal(got, want) {
		t.Fatalf("faulted cluster stream differs from local run:\nlocal:   %q\ncluster: %q", want, got)
	}
	for i, line := range bytes.Split(bytes.TrimSpace(got), []byte("\n")) {
		var rec struct {
			Error       string `json:"error"`
			Degradation *struct {
				SurvivorsOK bool `json:"survivorsOk"`
			} `json:"degradation"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec.Error != "" {
			t.Fatalf("record %d errored: %s", i, rec.Error)
		}
		if rec.Degradation == nil {
			t.Fatalf("record %d: faulted run carries no degradation report", i)
		}
		if !rec.Degradation.SurvivorsOK {
			t.Fatalf("record %d: survivor verdict not clean", i)
		}
	}

	info2 := submit(t, coord.URL, faultSweepJSON)
	if !info2.Cached {
		t.Fatal("identical faulted re-submission missed the coordinator's result cache")
	}
	if got2 := fetch(t, coord.URL+"/v1/jobs/"+info2.ID+"/records"); !bytes.Equal(got2, want) {
		t.Fatal("cached faulted stream differs from the original")
	}
}

// TestClusterFailoverMidRun is the tentpole acceptance criterion: kill the
// worker that is executing a sweep mid-run and the coordinator re-dispatches
// the job to the surviving worker, with the client-visible NDJSON stream
// byte-identical to a local `nccrun -json` run — the replayed deterministic
// prefix is skipped, not duplicated. So is the trace, kept in memory or
// stored in the coordinator's blob store.
func TestClusterFailoverMidRun(t *testing.T) {
	want, wantTrace := localLines(t, slowSweepJSON), localTrace(t, slowSweepJSON)
	for _, cacheDir := range []bool{false, true} {
		t.Run(fmt.Sprintf("cache-dir=%v", cacheDir), func(t *testing.T) {
			cfg := service.Config{WorkerTTL: time.Minute, JobAttempts: 3}
			if cacheDir {
				cfg.CacheDir = t.TempDir()
			}
			coord := newCoordinator(t, cfg)
			w1 := newTestServer(t, service.Config{WorkerBudget: 2, Executors: 1})
			w2 := newTestServer(t, service.Config{WorkerBudget: 2, Executors: 1})
			registerWorker(t, coord.URL, "w1", w1.URL, 1)
			registerWorker(t, coord.URL, "w2", w2.URL, 1)

			info := submit(t, coord.URL, slowSweepJSON)
			waitRecords(t, coord.URL, info.ID, 1, 30*time.Second)

			// The whole sweep runs on one worker; find which and kill it mid-run.
			victim, survivorName := w1, "w2"
			var vlist struct {
				Jobs []service.JobInfo `json:"jobs"`
			}
			if err := json.Unmarshal(fetch(t, w2.URL+"/v1/jobs?state=running"), &vlist); err != nil {
				t.Fatal(err)
			}
			if len(vlist.Jobs) > 0 {
				victim, survivorName = w2, "w1"
			}
			victim.CloseClientConnections()
			victim.Close()

			waitState(t, coord.URL, info.ID, service.StateDone, 60*time.Second)
			got := fetch(t, coord.URL+"/v1/jobs/"+info.ID+"/records")
			if !bytes.Equal(got, want) {
				t.Fatalf("post-failover stream differs from local run:\nlocal:   %q\ncluster: %q", want, got)
			}
			// The retried dispatch published exactly one trace.
			if got, _, _ := fetchTrace(t, coord.URL, info.ID); !bytes.Equal(got, wantTrace) {
				t.Fatalf("post-failover trace differs from local run: %d bytes, want %d", len(got), len(wantTrace))
			}
			if n, want := jobInfo(t, coord.URL, info.ID).Trace, bytes.Count(wantTrace, []byte("\n")); n != want {
				t.Fatalf("JobInfo.Trace = %d after the failover, want %d", n, want)
			}
			// The dead worker was dropped from the registry on the broken stream.
			if n := metricValue(t, coord.URL, "nccd_workers_live"); n != 1 {
				t.Fatalf("nccd_workers_live = %g after the kill, want 1", n)
			}
			metrics := string(fetch(t, coord.URL+"/metrics"))
			if !strings.Contains(metrics, fmt.Sprintf("nccd_worker_jobs_total{worker=%q} 1", survivorName)) {
				t.Fatalf("survivor %s has no dispatch attempt:\n%s", survivorName, metrics)
			}
		})
	}
}

// TestClusterQueuedUntilWorkerJoins submits to an empty cluster: the job
// waits in the queue (no capacity anywhere), then runs as soon as the first
// worker registers.
func TestClusterQueuedUntilWorkerJoins(t *testing.T) {
	coord := newCoordinator(t, service.Config{WorkerTTL: time.Minute})
	want := localLines(t, sweepJSON)

	info := submit(t, coord.URL, sweepJSON)
	time.Sleep(50 * time.Millisecond)
	if st := jobInfo(t, coord.URL, info.ID).State; st != service.StateQueued {
		t.Fatalf("job state with no workers = %q, want queued", st)
	}
	w := newTestServer(t, service.Config{WorkerBudget: 2})
	registerWorker(t, coord.URL, "w1", w.URL, 2)
	waitState(t, coord.URL, info.ID, service.StateDone, 30*time.Second)
	if got := fetch(t, coord.URL+"/v1/jobs/"+info.ID+"/records"); !bytes.Equal(got, want) {
		t.Fatal("stream differs from local run after late worker join")
	}
}

// TestClusterCancelPropagates cancels a coordinator job whose run never ends
// on its own: the coordinator job flips to canceled AND the cancel reaches
// the worker's engine (its own job terminates too, instead of spinning to
// MaxRounds).
func TestClusterCancelPropagates(t *testing.T) {
	coord := newCoordinator(t, service.Config{WorkerTTL: time.Minute})
	w := newTestServer(t, service.Config{WorkerBudget: 2, Executors: 1})
	registerWorker(t, coord.URL, "w1", w.URL, 1)

	info := submit(t, coord.URL, spinJSON)
	waitState(t, coord.URL, info.ID, service.StateRunning, 10*time.Second)
	// Wait for the worker to actually be running it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var list struct {
			Jobs []service.JobInfo `json:"jobs"`
		}
		if err := json.Unmarshal(fetch(t, w.URL+"/v1/jobs?state=running"), &list); err != nil {
			t.Fatal(err)
		}
		if len(list.Jobs) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never started the proxied job")
		}
		time.Sleep(5 * time.Millisecond)
	}

	req, err := http.NewRequest(http.MethodDelete, coord.URL+"/v1/jobs/"+info.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, coord.URL, info.ID, service.StateCanceled, 10*time.Second)

	// The worker-side job unwinds through its engine's abort path.
	deadline = time.Now().Add(10 * time.Second)
	for {
		var list struct {
			Jobs []service.JobInfo `json:"jobs"`
		}
		if err := json.Unmarshal(fetch(t, w.URL+"/v1/jobs?state=canceled"), &list); err != nil {
			t.Fatal(err)
		}
		if len(list.Jobs) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cancel never propagated to the worker's job")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWorkerExpiryAndDeregister covers registry membership: a worker that
// stops heartbeating is expired after the TTL, and DELETE /v1/workers/{name}
// removes one immediately.
func TestWorkerExpiryAndDeregister(t *testing.T) {
	coord := newCoordinator(t, service.Config{WorkerTTL: 100 * time.Millisecond})
	registerWorker(t, coord.URL, "ephemeral", "http://127.0.0.1:1", 1)
	if n := metricValue(t, coord.URL, "nccd_workers_live"); n != 1 {
		t.Fatalf("nccd_workers_live = %g after registration, want 1", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for metricValue(t, coord.URL, "nccd_workers_live") != 0 {
		if time.Now().After(deadline) {
			t.Fatal("silent worker never expired")
		}
		time.Sleep(10 * time.Millisecond)
	}

	registerWorker(t, coord.URL, "explicit", "http://127.0.0.1:1", 1)
	req, err := http.NewRequest(http.MethodDelete, coord.URL+"/v1/workers/explicit", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deregister: status %d, want 200", resp.StatusCode)
	}
	if n := metricValue(t, coord.URL, "nccd_workers_live"); n != 0 {
		t.Fatalf("nccd_workers_live = %g after deregister, want 0", n)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double deregister: status %d, want 404", resp.StatusCode)
	}
}

// TestJoinerLifecycle drives the worker-side membership loop end to end:
// Joiner registers (workers_live 1), heartbeats keep it alive past several
// TTLs, and context cancellation deregisters it promptly — no TTL wait.
func TestJoinerLifecycle(t *testing.T) {
	coord := newCoordinator(t, service.Config{WorkerTTL: 250 * time.Millisecond})
	w := newTestServer(t, service.Config{WorkerBudget: 2})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	jn := &service.Joiner{
		Coordinator: coord.URL,
		Self:        w.URL,
		Name:        "joined",
		Capacity:    2,
		Interval:    50 * time.Millisecond,
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		jn.Run(ctx)
	}()

	deadline := time.Now().Add(5 * time.Second)
	for metricValue(t, coord.URL, "nccd_workers_live") != 1 {
		if time.Now().After(deadline) {
			t.Fatal("joiner never registered")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Survive several TTL windows on heartbeats alone.
	time.Sleep(600 * time.Millisecond)
	if n := metricValue(t, coord.URL, "nccd_workers_live"); n != 1 {
		t.Fatalf("nccd_workers_live = %g under active heartbeats, want 1", n)
	}

	cancel()
	<-done
	// Deregistration is immediate (well inside one TTL).
	if n := metricValue(t, coord.URL, "nccd_workers_live"); n != 0 {
		t.Fatalf("nccd_workers_live = %g right after Joiner shutdown, want 0", n)
	}
}

// TestJoinerBacksOffWhenCoordinatorUnreachable: a failing coordinator must
// not be hammered at the heartbeat period — registration retries back off
// exponentially (with jitter) up to a cap, and a recovered coordinator gets
// the worker back.
func TestJoinerBacksOffWhenCoordinatorUnreachable(t *testing.T) {
	var mu sync.Mutex
	attempts := 0
	failing := true
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		attempts++
		if failing {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	registered := make(chan struct{}, 1)
	jn := &service.Joiner{
		Coordinator: srv.URL,
		Self:        "http://127.0.0.1:0",
		Name:        "backoff-test",
		Interval:    20 * time.Millisecond,
		Logf: func(format string, args ...any) {
			if strings.HasPrefix(format, "registered") {
				select {
				case registered <- struct{}{}:
				default:
				}
			}
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		jn.Run(ctx)
	}()

	// While failing, the retry gaps grow: minimum gaps are interval, then
	// 2*interval, then the 4x cap... so 1.2s admits at most ~14 attempts
	// (a plain 20ms ticker would make 50+).
	time.Sleep(1200 * time.Millisecond)
	mu.Lock()
	failures := attempts
	failing = false
	mu.Unlock()
	if failures >= 25 {
		t.Errorf("joiner made %d attempts in 1.2s against a dead coordinator; backoff is not applied", failures)
	}
	select {
	case <-registered:
	case <-time.After(5 * time.Second):
		t.Error("joiner never re-registered after the coordinator recovered")
	}
	cancel()
	<-done
}
