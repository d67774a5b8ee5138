package graphio

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ncc/internal/blob"
	"ncc/internal/graph"
)

func TestStorePutOpenRoundTrip(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := graph.KForest(64, 2, 5)
	hash, err := st.PutGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if !blob.ValidHash(hash) {
		t.Fatalf("hash %q not 64 hex digits", hash)
	}
	if !st.Has(hash) {
		t.Fatal("Has = false after Put")
	}
	// Idempotent.
	again, err := st.PutGraph(g)
	if err != nil || again != hash {
		t.Fatalf("re-put: %s, %v", again, err)
	}
	got, err := st.Open(hash)
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, g, got)
}

func TestStoreOpenDetectsCorruption(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Path(10)
	w := make([]uint32, 10)
	for i := range w {
		w[i] = 4
	}
	if err := g.SetCapacityWeights(w); err != nil {
		t.Fatal(err)
	}
	hash, err := st.PutGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(st.Path(hash))
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-4] ^= 1 // a capacity weight: still structurally valid, wrong hash
	if err := os.WriteFile(st.Path(hash), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Open(hash); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("corrupted open: %v", err)
	}
}

func TestStorePutStreamValidates(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.PutStream(strings.NewReader("not a graph")); err == nil {
		t.Fatal("garbage accepted")
	}
	var buf bytes.Buffer
	if err := Encode(&buf, graph.Cycle(12)); err != nil {
		t.Fatal(err)
	}
	hash, g, err := st.PutStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 12 || !st.Has(hash) {
		t.Fatalf("n=%d has=%v", g.N(), st.Has(hash))
	}
}

func TestResolveThroughFileFamily(t *testing.T) {
	dir := t.TempDir()
	SetStoreDir(dir)
	t.Cleanup(func() { SetStoreDir("") })
	st, err := ActiveStore()
	if err != nil {
		t.Fatal(err)
	}
	g := graph.GNM(40, 120, 3)
	hash, err := st.PutGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	// The graph registry's "file" family must load through the resolver
	// installed by this package's init.
	got, err := graph.Build(graph.Spec{Family: "file", File: hash})
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, g, got)
	// Memoized: same instance on re-resolve.
	got2, err := graph.Build(graph.Spec{Family: "file", File: hash})
	if err != nil {
		t.Fatal(err)
	}
	if got2 != got {
		t.Error("expected memoized graph instance")
	}
	if _, err := graph.Build(graph.Spec{Family: "file", File: "zz"}); err == nil {
		t.Error("bad ref accepted")
	}
	if _, err := graph.Build(graph.Spec{Family: "file", File: strings.Repeat("0", 64)}); err == nil {
		t.Error("missing hash resolved")
	}
}

func TestResolveFetchesFromFallback(t *testing.T) {
	// Source store holds the graph; the active store starts empty and must
	// pull it through the fetcher, then serve it locally.
	srcDir, dstDir := t.TempDir(), t.TempDir()
	src, err := NewStore(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := src.PutGraph(graph.Star(30))
	if err != nil {
		t.Fatal(err)
	}
	SetStoreDir(dstDir)
	t.Cleanup(func() { SetStoreDir(""); SetFetcher(nil) })
	fetches := 0
	SetFetcher(func(h string) (io.ReadCloser, error) {
		fetches++
		return os.Open(src.Path(h))
	})
	g, err := Resolve(hash)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 30 || fetches != 1 {
		t.Fatalf("n=%d fetches=%d", g.N(), fetches)
	}
	if _, err := os.Stat(filepath.Join(dstDir, hash+".nccg")); err != nil {
		t.Errorf("fetched graph not persisted: %v", err)
	}
	// A fetcher returning wrong bytes for the hash must be rejected.
	wrongHash, err := src.PutGraph(graph.Path(5))
	if err != nil {
		t.Fatal(err)
	}
	SetFetcher(func(string) (io.ReadCloser, error) { return os.Open(src.Path(wrongHash)) })
	bogus := strings.Repeat("a", 64)
	if _, err := Resolve(bogus); err == nil {
		t.Error("hash-mismatched fetch accepted")
	}
}

// TestResolveMismatchedFetchKeepsStoredGraph: a fetcher that answers with the
// bytes of a graph the active store already holds, for a different hash, must
// fail the resolve and leave that stored graph in place.
func TestResolveMismatchedFetchKeepsStoredGraph(t *testing.T) {
	SetStoreDir(t.TempDir())
	t.Cleanup(func() { SetStoreDir(""); SetFetcher(nil) })
	st, err := ActiveStore()
	if err != nil {
		t.Fatal(err)
	}
	held, err := st.PutGraph(graph.Path(5))
	if err != nil {
		t.Fatal(err)
	}
	SetFetcher(func(string) (io.ReadCloser, error) { return os.Open(st.Path(held)) })
	if _, err := Resolve(strings.Repeat("b", 64)); err == nil || !strings.Contains(err.Error(), "hashes to "+held) {
		t.Fatalf("hash-mismatched fetch: %v", err)
	}
	g, err := st.Open(held)
	if err != nil {
		t.Fatalf("stored graph lost to a mismatched fetch: %v", err)
	}
	if g.N() != 5 {
		t.Fatalf("stored graph n=%d, want 5", g.N())
	}
}
