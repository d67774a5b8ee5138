package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ncc/internal/campaign"
	"ncc/internal/service"
)

// runCapture invokes run and returns (exit code, stdout, stderr).
func runCapture(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errw bytes.Buffer
	code := run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// smallSpec is a two-unit campaign (mis + its auto-derived baseline) small
// enough to execute in-process repeatedly.
const smallSpec = `{
	"name": "cmd-test",
	"sweep": {"seeds": [1]},
	"entries": [
		{"name": "mis-kforest", "scenario": {"algo": "mis", "graph": {"family": "kforest", "params": {"n": 12, "k": 2}}}}
	]
}`

func writeSpec(t *testing.T, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func newDaemon(t *testing.T, cfg service.Config) *httptest.Server {
	t.Helper()
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestLocalRemoteByteIdentical is the acceptance check for the CLI surface:
// the same spec run locally and through a daemon emits byte-identical -json
// report lines (the report has no wall-clock fields, and the remote path
// passes the server's bytes through verbatim).
func TestLocalRemoteByteIdentical(t *testing.T) {
	spec := writeSpec(t, smallSpec)
	code, local, errw := runCapture(t, "-spec", spec, "-json")
	if code != 0 {
		t.Fatalf("local exit %d, stderr: %s", code, errw)
	}
	ts := newDaemon(t, service.Config{Executors: 2, WorkerBudget: 4})
	code, remote, errw := runCapture(t, "-spec", spec, "-json", "-remote", ts.URL, "-poll", "10ms")
	if code != 0 {
		t.Fatalf("remote exit %d, stderr: %s", code, errw)
	}
	if local != remote {
		t.Errorf("local and remote -json output differ:\n--- local:\n%s--- remote:\n%s", local, remote)
	}
	if !strings.Contains(errw, "submitted to "+ts.URL) {
		t.Errorf("remote run missing submission note: %s", errw)
	}
}

func TestRemoteHonorsToken(t *testing.T) {
	spec := writeSpec(t, smallSpec)
	ts := newDaemon(t, service.Config{Executors: 2, WorkerBudget: 4, ClusterToken: "s3cret"})
	code, _, errw := runCapture(t, "-spec", spec, "-json", "-remote", ts.URL, "-poll", "10ms")
	if code != 1 || !strings.Contains(errw, "401") {
		t.Fatalf("tokenless submit: exit %d, stderr %q; want 1 with a 401", code, errw)
	}
	code, out, errw := runCapture(t, "-spec", spec, "-json", "-remote", ts.URL, "-poll", "10ms", "-token", "s3cret")
	if code != 0 {
		t.Fatalf("authed exit %d, stderr: %s", code, errw)
	}
	if !strings.Contains(out, `"campaign":"cmd-test"`) {
		t.Errorf("report line missing campaign name:\n%s", out)
	}
}

// TestUnhealthyRunExitsOne pins the exit status that makes a campaign run a
// health check: a round budget too small for the runs to finish turns every
// run into an error, and the report still prints before the exit 1.
func TestUnhealthyRunExitsOne(t *testing.T) {
	spec := writeSpec(t, strings.Replace(smallSpec, `"sweep"`, `"model": {"maxrounds": 5}, "sweep"`, 1))
	code, out, errw := runCapture(t, "-spec", spec, "-json")
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, errw)
	}
	if !strings.Contains(errw, "run error(s)") {
		t.Errorf("stderr missing the error count: %s", errw)
	}
	if !strings.Contains(out, `"errors":2`) || !strings.Contains(out, `"verified":0`) {
		t.Errorf("report should show both runs failed:\n%s", out)
	}
}

func TestTextReportTable(t *testing.T) {
	spec := writeSpec(t, smallSpec)
	code, out, errw := runCapture(t, "-spec", spec)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw)
	}
	for _, want := range []string{"campaign cmd-test:", "entry", "variant", "mis-kforest", "baseline"} {
		if !strings.Contains(out, want) {
			t.Errorf("text report missing %q:\n%s", want, out)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := runCapture(t); code != 2 {
		t.Errorf("missing -spec: exit %d, want 2", code)
	}
	if code, _, _ := runCapture(t, "-spec", filepath.Join(t.TempDir(), "nope.json")); code != 2 {
		t.Errorf("unreadable spec: exit %d, want 2", code)
	}
	bad := writeSpec(t, `{"name":"x","entries":[{"name":"e","scenario":{"algo":"no-such-algo","graph":{"family":"kforest","params":{"n":8,"k":2}}}}]}`)
	if code, _, errw := runCapture(t, "-spec", bad); code != 2 {
		t.Errorf("invalid spec: exit %d, want 2 (stderr: %s)", code, errw)
	}
}

// TestShippedSpecStaysValid keeps the committed example campaign loadable —
// the nightly workflow and README walkthrough both point at it.
func TestShippedSpecStaysValid(t *testing.T) {
	path := filepath.Join("..", "..", "campaigns", "compare-small.json")
	sp, err := campaign.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Resolve(filepath.Dir(path)); err != nil {
		t.Fatal(err)
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	units, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 6 {
		t.Fatalf("compare-small expands to %d units, want 6 (3 entries x ncc+baseline)", len(units))
	}
}
