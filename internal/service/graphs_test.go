package service_test

import (
	"bytes"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"ncc/internal/graph"
	"ncc/internal/graphio"
	"ncc/internal/param"
	"ncc/internal/service"
)

// putGraph uploads raw .nccg bytes under the given hash and returns the status.
func putGraph(t *testing.T, base, hash string, body []byte) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, base+"/v1/graphs/"+hash, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestGraphRoutes covers the graph store's HTTP surface: upload, idempotent
// re-upload, download byte-identity, and the rejection paths.
func TestGraphRoutes(t *testing.T) {
	ts := newTestServer(t, service.Config{GraphDir: t.TempDir()})

	g, err := graph.Build(graph.Spec{Family: "kforest", Params: param.Values{"n": 64}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var enc bytes.Buffer
	if err := graphio.Encode(&enc, g); err != nil {
		t.Fatal(err)
	}
	st, err := graphio.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hash, err := st.PutGraph(g)
	if err != nil {
		t.Fatal(err)
	}

	if got := putGraph(t, ts.URL, hash, enc.Bytes()); got != http.StatusCreated {
		t.Fatalf("first PUT: status %d, want 201", got)
	}
	if got := putGraph(t, ts.URL, hash, enc.Bytes()); got != http.StatusOK {
		t.Fatalf("re-PUT: status %d, want 200", got)
	}
	if got := fetch(t, ts.URL+"/v1/graphs/"+hash); !bytes.Equal(got, enc.Bytes()) {
		t.Fatal("downloaded graph bytes differ from the upload")
	}

	wrong := strings.Repeat("ab", 32)
	if got := putGraph(t, ts.URL, wrong, enc.Bytes()); got != http.StatusBadRequest {
		t.Fatalf("PUT under a wrong hash: status %d, want 400", got)
	}
	if got := putGraph(t, ts.URL, hash[:10], enc.Bytes()); got != http.StatusBadRequest {
		t.Fatalf("PUT under a malformed hash: status %d, want 400", got)
	}
	if got := putGraph(t, ts.URL, wrong, []byte("not a graph")); got != http.StatusBadRequest {
		t.Fatalf("PUT of garbage bytes: status %d, want 400", got)
	}
	resp, err := http.Get(ts.URL + "/v1/graphs/" + strings.Repeat("cd", 32))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET of a missing graph: status %d, want 404", resp.StatusCode)
	}
}

// TestClusterFileGraphSweep is the ingestion subsystem's cluster acceptance
// path: a content-addressed graph is uploaded to the coordinator, referenced
// by hash from a file-family scenario with degree-proportional capacities,
// and executed by workers whose local stores have never seen it — they fetch
// it through GET /v1/graphs on demand. The cluster stream must be
// byte-identical to a local run, and the re-submission cached.
func TestClusterFileGraphSweep(t *testing.T) {
	// Build and store the graph locally, and compute the expected stream
	// while the local store still holds it.
	srcDir := t.TempDir()
	graphio.SetStoreDir(srcDir)
	t.Cleanup(func() {
		graphio.SetFetcher(nil)
		graphio.SetStoreDir("")
	})
	g, err := graph.Build(graph.Spec{Family: "pa", Params: param.Values{"n": 128, "k": 2}, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	st, err := graphio.ActiveStore()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := st.PutGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	fileJSON := `{"name":"real","algo":"mis","graph":{"family":"file","file":"` + hash + `"},` +
		`"model":{"seed":5},"capacities":{"policy":"degree"},"sweep":{"seeds":[1,2,3]}}`
	want := localLines(t, fileJSON)

	// Upload the graph to the coordinator, then point the process's resolver
	// at an empty store with the coordinator as its fetch fallback — the
	// position a fresh cluster worker is in.
	coord := newCoordinator(t, service.Config{WorkerTTL: time.Minute, GraphDir: t.TempDir()})
	enc, err := os.ReadFile(st.Path(hash))
	if err != nil {
		t.Fatal(err)
	}
	if got := putGraph(t, coord.URL, hash, enc); got != http.StatusCreated {
		t.Fatalf("uploading graph to coordinator: status %d, want 201", got)
	}
	graphio.SetStoreDir(t.TempDir())
	graphio.SetFetcher(service.NewClusterClient(coord.URL, "").Graph)

	w1 := newTestServer(t, service.Config{WorkerBudget: 2, Executors: 1})
	w2 := newTestServer(t, service.Config{WorkerBudget: 2, Executors: 1})
	registerWorker(t, coord.URL, "w1", w1.URL, 1)
	registerWorker(t, coord.URL, "w2", w2.URL, 1)

	info := submit(t, coord.URL, fileJSON)
	got := fetch(t, coord.URL+"/v1/jobs/"+info.ID+"/records")
	if !bytes.Equal(got, want) {
		t.Fatalf("cluster file-graph stream differs from local run:\nlocal:   %q\ncluster: %q", want, got)
	}
	if !strings.Contains(string(got), `"capMin"`) {
		t.Fatal("records carry no heterogeneous capacity range")
	}

	info2 := submit(t, coord.URL, fileJSON)
	if !info2.Cached {
		t.Fatal("identical file-graph re-submission missed the result cache")
	}
	if got2 := fetch(t, coord.URL+"/v1/jobs/"+info2.ID+"/records"); !bytes.Equal(got2, want) {
		t.Fatal("cached file-graph stream differs from the original")
	}
}
