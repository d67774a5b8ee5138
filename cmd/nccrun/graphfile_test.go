package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ncc/internal/graph"
	"ncc/internal/graphio"
	"ncc/internal/param"
	"ncc/internal/service"
)

// stageGraph builds a generator graph and stores it in a fresh store,
// returning the store dir, the content hash, and a standalone .nccg copy.
func stageGraph(t *testing.T) (dir, hash, nccgPath string) {
	t.Helper()
	dir = filepath.Join(t.TempDir(), "graphs")
	st, err := graphio.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(graph.Spec{Family: "pa", Params: param.Values{"n": 64, "k": 2}, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if hash, err = st.PutGraph(g); err != nil {
		t.Fatal(err)
	}
	nccgPath = filepath.Join(t.TempDir(), "g.nccg")
	if err := graphio.WriteFile(nccgPath, g); err != nil {
		t.Fatal(err)
	}
	return dir, hash, nccgPath
}

// TestRunGraphFileByHashAndPath runs the same real graph through -graph-file
// both ways — stored hash and raw .nccg path — with degree-proportional
// capacities, and expects identical verified records.
func TestRunGraphFileByHashAndPath(t *testing.T) {
	dir, hash, nccgPath := stageGraph(t)

	code, byHash, errw := runCapture(t, "-graph-dir", dir, "-graph-file", hash, "-algo", "mis", "-json")
	if code != 0 {
		t.Fatalf("by hash: exit %d, stderr: %s", code, errw)
	}
	var rec struct {
		Scenario struct {
			Graph struct {
				Family string `json:"family"`
				File   string `json:"file"`
			} `json:"graph"`
		} `json:"scenario"`
		Graph struct {
			N int `json:"n"`
		} `json:"graph"`
		Verified bool `json:"verified"`
	}
	if err := json.Unmarshal([]byte(byHash), &rec); err != nil {
		t.Fatalf("decoding record: %v\n%s", err, byHash)
	}
	if rec.Scenario.Graph.Family != "file" || rec.Scenario.Graph.File != hash {
		t.Fatalf("scenario echo = %+v, want file family with %s", rec.Scenario.Graph, hash)
	}
	if !rec.Verified || rec.Graph.N != 64 {
		t.Fatalf("run not verified or wrong graph: %s", byHash)
	}

	// Ingesting the standalone .nccg lands on the same hash, so the record
	// (scenario echo included) is identical.
	code, byPath, errw := runCapture(t, "-graph-dir", dir, "-graph-file", nccgPath, "-algo", "mis", "-json")
	if code != 0 {
		t.Fatalf("by path: exit %d, stderr: %s", code, errw)
	}
	if byPath != byHash {
		t.Fatalf("-graph-file path vs hash records differ:\n%s\n%s", byPath, byHash)
	}
}

// TestRunGraphFileErrors pins usage errors: a missing hash and a bogus path
// are both exit 2 (caught before execution).
func TestRunGraphFileErrors(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "empty")
	code, _, errw := runCapture(t, "-graph-dir", dir, "-graph-file", filepath.Join(dir, "nope.nccg"), "-algo", "mis")
	if code != 2 {
		t.Fatalf("bogus path: exit %d (stderr %s), want 2", code, errw)
	}
	// A well-formed hash that is not in the store passes static validation
	// but fails at run time (exit 1) with the resolver's hint.
	code, _, errw = runCapture(t, "-graph-dir", dir, "-graph-file", strings.Repeat("09", 32), "-algo", "mis")
	if code != 1 || !strings.Contains(errw, "nccgraph") {
		t.Fatalf("missing hash: exit %d, stderr %q; want 1 with the ingest hint", code, errw)
	}
}

// TestRemoteUploadsGraph: submitting a file-family scenario with -remote
// first pushes the locally stored graph to the daemon's /v1/graphs route, so
// a daemon that has never seen the graph can execute the job; the streamed
// records match the local run byte for byte.
func TestRemoteUploadsGraph(t *testing.T) {
	dir, hash, _ := stageGraph(t)
	serverStore := filepath.Join(t.TempDir(), "server-graphs")
	svc, err := service.New(service.Config{WorkerBudget: 4, GraphDir: serverStore})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	args := []string{"-graph-dir", dir, "-graph-file", hash, "-algo", "mis", "-json"}
	codeL, outL, errwL := runCapture(t, args...)
	if codeL != 0 {
		t.Fatalf("local exit %d, stderr: %s", codeL, errwL)
	}
	codeR, outR, errwR := runCapture(t, append(args, "-remote", ts.URL)...)
	if codeR != 0 {
		t.Fatalf("remote exit %d, stderr: %s", codeR, errwR)
	}
	if outR != outL {
		t.Fatalf("remote file-graph records differ from local:\nlocal:  %s\nremote: %s", outL, outR)
	}
	if _, err := os.Stat(filepath.Join(serverStore, hash+".nccg")); err != nil {
		t.Fatalf("graph was not uploaded to the daemon's store: %v", err)
	}
}

// TestListIncludesCapacityPolicies: the registry dump names every registered
// capacity policy alongside algorithms, families, and fault models.
func TestListIncludesCapacityPolicies(t *testing.T) {
	code, out, errw := runCapture(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw)
	}
	if !strings.Contains(out, "capacity policies:") {
		t.Fatalf("-list missing capacity policies section:\n%s", out)
	}
	for _, name := range graph.CapacityPolicies.Names() {
		if !strings.Contains(out, name) {
			t.Errorf("-list missing capacity policy %q", name)
		}
	}
}

// TestRemoteHonorsToken drives every call of -remote against a
// token-protected daemon: with -token the graph upload, submission, record
// stream, state check and trace fetch all pass and match a local run;
// without it the CLI exits 1 and prints the daemon's refusal.
func TestRemoteHonorsToken(t *testing.T) {
	dir, hash, _ := stageGraph(t)
	serverStore := filepath.Join(t.TempDir(), "server-graphs")
	svc, err := service.New(service.Config{WorkerBudget: 4, GraphDir: serverStore, ClusterToken: "s3cret"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	tmp := t.TempDir()
	localTrace, remoteTrace := filepath.Join(tmp, "local.ndjson"), filepath.Join(tmp, "remote.ndjson")
	args := []string{"-graph-dir", dir, "-graph-file", hash, "-algo", "mis", "-json"}
	codeL, outL, errwL := runCapture(t, append(args, "-trace", localTrace)...)
	if codeL != 0 {
		t.Fatalf("local exit %d, stderr: %s", codeL, errwL)
	}
	code, out, errw := runCapture(t, append(args, "-remote", ts.URL, "-token", "s3cret", "-trace", remoteTrace)...)
	if code != 0 || errw != "" {
		t.Fatalf("authed exit %d, stderr: %s", code, errw)
	}
	if out != outL {
		t.Errorf("authed remote records differ from local:\nlocal:  %s\nremote: %s", outL, out)
	}
	if _, err := os.Stat(filepath.Join(serverStore, hash+".nccg")); err != nil {
		t.Errorf("graph was not uploaded to the daemon's store: %v", err)
	}
	lt, err := os.ReadFile(localTrace)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := os.ReadFile(remoteTrace)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lt, rt) {
		t.Error("authed remote trace differs from the local one")
	}

	code, _, errw = runCapture(t, append(args, "-remote", ts.URL)...)
	if code != 1 || !strings.Contains(errw, "missing or invalid cluster token") {
		t.Fatalf("tokenless run: exit %d, stderr %q; want 1 with the daemon's refusal", code, errw)
	}
}
