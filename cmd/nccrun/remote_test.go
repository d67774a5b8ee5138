package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ncc/internal/algo"
	"ncc/internal/comm"
	"ncc/internal/service"
)

func startDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	svc, err := service.New(service.Config{WorkerBudget: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestRemoteMatchesLocalJSON is the client half of the acceptance criterion:
// `nccrun -remote ... -json` must emit exactly the bytes of a local
// `nccrun -json` run of the same scenario — the remote path passes stream
// lines through verbatim.
func TestRemoteMatchesLocalJSON(t *testing.T) {
	ts := startDaemon(t)
	path := filepath.Join(t.TempDir(), "sweep.json")
	spec := `{
		"algo": "mis",
		"graph": {"family": "kforest", "params": {"n": 16, "k": 2}, "seed": 1},
		"model": {"capfactor": 4, "seed": 1},
		"sweep": {"n": [12, 16], "seeds": [1, 2]}
	}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}

	codeL, outL, errwL := runCapture(t, "-scenario", path, "-json")
	if codeL != 0 {
		t.Fatalf("local exit %d, stderr: %s", codeL, errwL)
	}
	codeR, outR, errwR := runCapture(t, "-scenario", path, "-remote", ts.URL, "-json")
	if codeR != 0 {
		t.Fatalf("remote exit %d, stderr: %s", codeR, errwR)
	}
	if outL != outR {
		t.Fatalf("remote JSON differs from local:\n--- local:\n%s\n--- remote:\n%s", outL, outR)
	}

	// Second remote run hits the cache and still matches byte for byte; the
	// human-readable mode announces the hit.
	codeR2, outR2, errwR2 := runCapture(t, "-scenario", path, "-remote", ts.URL, "-json")
	if codeR2 != 0 {
		t.Fatalf("cached remote exit %d, stderr: %s", codeR2, errwR2)
	}
	if outR2 != outL {
		t.Fatal("cached remote stream differs from local run")
	}
	code, out, _ := runCapture(t, "-scenario", path, "-remote", ts.URL)
	if code != 0 {
		t.Fatalf("human-mode remote exit %d", code)
	}
	if !strings.Contains(out, "served from result cache") {
		t.Errorf("human mode did not announce the cache hit:\n%s", out)
	}
}

// TestRemoteDegradedRunExitsZero pins that the remote tail applies the same
// degradation contract as a local run: a fault-injected scenario whose
// survivors are consistent exits 0 (with the stream still byte-identical),
// it does not report "verification failed".
func TestRemoteDegradedRunExitsZero(t *testing.T) {
	ts := startDaemon(t)
	path := filepath.Join(t.TempDir(), "faulted.json")
	spec := `{
		"algo": "mis",
		"graph": {"family": "kforest", "params": {"n": 32, "k": 2}, "seed": 7},
		"model": {"seed": 11, "maxrounds": 131072},
		"faults": {"models": [{"model": "crash", "params": {"count": 3, "round": 20}}]}
	}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}

	codeL, outL, errwL := runCapture(t, "-scenario", path, "-json")
	if codeL != 0 {
		t.Fatalf("local degraded exit %d, stderr: %s", codeL, errwL)
	}
	codeR, outR, errwR := runCapture(t, "-scenario", path, "-remote", ts.URL, "-json")
	if codeR != 0 {
		t.Fatalf("remote degraded exit %d, stderr: %s", codeR, errwR)
	}
	if strings.Contains(errwR, "verification failed") {
		t.Fatalf("remote degraded run reported verification failure: %s", errwR)
	}
	if outL != outR {
		t.Fatalf("remote degraded JSON differs from local:\n--- local:\n%s\n--- remote:\n%s", outL, outR)
	}
}

// TestRemoteFlagsMode checks that flag-assembled scenarios (no -scenario
// file) also submit, and that human-readable remote output matches the local
// presentation.
func TestRemoteFlagsMode(t *testing.T) {
	ts := startDaemon(t)
	args := []string{"-algo", "bfs", "-graph", "grid", "-rows", "4", "-cols", "4"}
	codeL, outL, errwL := runCapture(t, args...)
	if codeL != 0 {
		t.Fatalf("local exit %d, stderr: %s", codeL, errwL)
	}
	codeR, outR, errwR := runCapture(t, append(args, "-remote", ts.URL)...)
	if codeR != 0 {
		t.Fatalf("remote exit %d, stderr: %s", codeR, errwR)
	}
	if outL != outR {
		t.Fatalf("remote human output differs from local:\n--- local:\n%s\n--- remote:\n%s", outL, outR)
	}
}

func init() {
	// Test-only algorithm that runs until the engine aborts it, so the
	// canceled-job exit-code test has an in-flight run to kill.
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

// TestRemoteCanceledJobExitsNonzero pins that a stream ending because the
// job was canceled server-side is not reported as success: partial results
// must yield exit 1.
func TestRemoteCanceledJobExitsNonzero(t *testing.T) {
	ts := startDaemon(t)
	spin := `{"algo":"spin-test","graph":{"family":"kforest","params":{"n":32,"k":2},"seed":1},"model":{"seed":1}}`
	path := filepath.Join(t.TempDir(), "spin.json")
	if err := os.WriteFile(path, []byte(spin), 0o644); err != nil {
		t.Fatal(err)
	}
	// Pre-submit so the job id is known; the client's own submission
	// coalesces onto it (HTTP 200, same id).
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spin))
	if err != nil {
		t.Fatal(err)
	}
	var info struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	go func() {
		time.Sleep(300 * time.Millisecond)
		resp, err := http.Post(ts.URL+"/v1/jobs/"+info.ID+"/cancel", "application/json", nil)
		if err == nil {
			resp.Body.Close()
		}
	}()
	code, _, errw := runCapture(t, "-scenario", path, "-remote", ts.URL, "-json")
	if code != 1 {
		t.Fatalf("exit = %d tailing a canceled job, want 1; stderr: %s", code, errw)
	}
	if !strings.Contains(errw, "ended canceled") {
		t.Errorf("stderr missing cancellation diagnosis: %s", errw)
	}
}

// TestRemoteInterruptCancelsJob covers Ctrl-C during -remote: the client
// must cancel the job on the daemon (DELETE /v1/jobs/{id}) before exiting,
// so an interrupted tail doesn't leave an orphaned sweep burning the
// daemon's engine-worker budget.
func TestRemoteInterruptCancelsJob(t *testing.T) {
	ts := startDaemon(t)
	spin := `{"algo":"spin-test","graph":{"family":"kforest","params":{"n":32,"k":2},"seed":1},"model":{"seed":1}}`
	path := filepath.Join(t.TempDir(), "spin.json")
	if err := os.WriteFile(path, []byte(spin), 0o644); err != nil {
		t.Fatal(err)
	}

	sigs := make(chan os.Signal, 1)
	type result struct {
		code      int
		out, errw string
	}
	done := make(chan result, 1)
	go func() {
		var out, errw strings.Builder
		code := run([]string{"-scenario", path, "-remote", ts.URL, "-json"}, &out, &errw, sigs)
		done <- result{code, out.String(), errw.String()}
	}()

	// Wait until the daemon actually has the job running, then interrupt.
	var jobID string
	deadline := time.Now().Add(10 * time.Second)
	for jobID == "" {
		if time.Now().After(deadline) {
			t.Fatal("job never started on the daemon")
		}
		resp, err := http.Get(ts.URL + "/v1/jobs?state=running")
		if err != nil {
			t.Fatal(err)
		}
		var list struct {
			Jobs []struct {
				ID string `json:"id"`
			} `json:"jobs"`
		}
		err = json.NewDecoder(resp.Body).Decode(&list)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(list.Jobs) == 1 {
			jobID = list.Jobs[0].ID
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	sigs <- os.Interrupt

	var res result
	select {
	case res = <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("run did not exit after the interrupt")
	}
	if res.code != 1 {
		t.Fatalf("exit = %d after interrupt, want 1; stderr: %s", res.code, res.errw)
	}
	if !strings.Contains(res.errw, "interrupted") {
		t.Errorf("stderr missing interrupt diagnosis: %s", res.errw)
	}

	// The cancel reached the daemon: the job ends canceled, not running.
	deadline = time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + jobID)
		if err != nil {
			t.Fatal(err)
		}
		var info struct {
			State string `json:"state"`
		}
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if info.State == "canceled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon job state = %q after interrupt, want canceled", info.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRemoteUnreachableDaemon(t *testing.T) {
	code, _, errw := runCapture(t, "-algo", "mis", "-graph", "cycle", "-n", "16",
		"-remote", "http://127.0.0.1:1")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, errw)
	}
	if !strings.Contains(errw, "error:") {
		t.Errorf("stderr missing diagnosis: %s", errw)
	}
}
