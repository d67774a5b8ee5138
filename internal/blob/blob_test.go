package blob

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func sum(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// TestConcurrentPutsConverge has 16 goroutines put the same bytes at once:
// every put returns the one content hash, and the directory ends up holding
// exactly that object and no temp files.
func TestConcurrentPutsConverge(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, ".bin")
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("node-capacitated clique\n"), 4096)
	want := sum(data)
	var wg sync.WaitGroup
	errs := make([]error, 16)
	hashes := make([]string, 16)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			hashes[i], errs[i] = s.Put(bytes.NewReader(data), nil)
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil || hashes[i] != want {
			t.Fatalf("put %d: hash %s, err %v; want %s", i, hashes[i], errs[i], want)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != want+".bin" {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want only %s.bin", names, want)
	}
	got, err := s.Get(want)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get after concurrent puts: %d bytes, %v", len(got), err)
	}
}

func TestGetRejectsBadHashAndCorruption(t *testing.T) {
	s, err := Open(t.TempDir(), ".bin")
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "zz", strings.Repeat("A", 64), "../" + strings.Repeat("0", 61)} {
		if ValidHash(bad) {
			t.Errorf("ValidHash(%q) = true", bad)
		}
		if _, err := s.Get(bad); err == nil || !strings.Contains(err.Error(), "not a sha256 hash") {
			t.Errorf("Get(%q): %v", bad, err)
		}
		if s.Has(bad) {
			t.Errorf("Has(%q) = true", bad)
		}
	}
	data := []byte("records\n")
	hash, err := s.Put(bytes.NewReader(data), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ValidHash(hash) || !s.Has(hash) {
		t.Fatalf("hash %q valid=%v has=%v", hash, ValidHash(hash), s.Has(hash))
	}
	flipped := bytes.Clone(data)
	flipped[0] ^= 1
	if err := os.WriteFile(s.Path(hash), flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(hash); err == nil || !strings.Contains(err.Error(), "corrupted") {
		t.Fatalf("read of a flipped byte: %v", err)
	}
	// Putting the object again repairs the damaged copy.
	if _, err := s.Put(bytes.NewReader(data), nil); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get(hash); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("after re-put: %q, %v", got, err)
	}
}

func TestCheckHookVetoesPut(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, ".bin")
	if err != nil {
		t.Fatal(err)
	}
	veto := errors.New("not a graph")
	var seen []byte
	_, err = s.Put(strings.NewReader("garbage"), func(f *os.File, size int64) error {
		seen = make([]byte, size)
		if _, err := io.ReadFull(f, seen); err != nil {
			return err
		}
		return veto
	})
	if !errors.Is(err, veto) {
		t.Fatalf("vetoed put returned %v", err)
	}
	if string(seen) != "garbage" {
		t.Fatalf("hook saw %q, want the spooled input from its start", seen)
	}
	if s.Has(sum([]byte("garbage"))) {
		t.Fatal("vetoed object took its address")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("vetoed put left %d files behind", len(entries))
	}
}

func TestRefsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, ".bin")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ref("missing"); err == nil {
		t.Fatal("missing ref read")
	}
	for _, v := range []string{"one", "two"} {
		if err := s.PutRef("scenario", []byte(v)); err != nil {
			t.Fatal(err)
		}
		if got, err := s.Ref("scenario"); err != nil || string(got) != v {
			t.Fatalf("ref = %q, %v; want %q", got, err, v)
		}
	}
	// A name with path separators stays inside the store directory.
	if err := s.PutRef("../escape", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "escape.ref")); err != nil {
		t.Fatalf("ref name not confined to the store: %v", err)
	}
}

// readerOnly hides every method but Read, as an HTTP response body does.
type readerOnly struct{ io.Reader }

// TestPutAllocatesNoCopyBuffer pins the pooled copy: a source without
// WriteTo (an HTTP body) costs Put no more allocations than a bytes.Reader,
// and neither pays a 32 KiB copy buffer per call.
func TestPutAllocatesNoCopyBuffer(t *testing.T) {
	s, err := Open(t.TempDir(), ".bin")
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("node-capacitated clique\n"), 8192) // 192 KiB
	br := bytes.NewReader(data)
	put := func(r io.Reader) func() {
		return func() {
			br.Reset(data)
			if _, err := s.Put(r, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	withWriteTo := testing.AllocsPerRun(50, put(br))
	bodyLike := testing.AllocsPerRun(50, put(readerOnly{br}))
	if bodyLike > withWriteTo {
		t.Errorf("Put of a reader without WriteTo: %v allocs, bytes.Reader: %v", bodyLike, withWriteTo)
	}

	var before, after runtime.MemStats
	const calls = 50
	runtime.ReadMemStats(&before)
	f := put(readerOnly{br})
	for i := 0; i < calls; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 16<<10 {
		t.Errorf("Put of a reader without WriteTo allocates %d B per call, want under 16 KiB", per)
	}
}

// TestStreamVerifiesAtEnd reads an object through Stream: intact bytes
// arrive with a clean end, a flipped byte turns the end into an error, and
// WriteTo reports the same.
func TestStreamVerifiesAtEnd(t *testing.T) {
	s, err := Open(t.TempDir(), ".bin")
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("trace line\n"), 10000) // several copy buffers
	hash, err := s.Put(bytes.NewReader(data), nil)
	if err != nil {
		t.Fatal(err)
	}
	read := func(viaWriteTo bool) ([]byte, error) {
		r, err := s.Stream(hash)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		var buf bytes.Buffer
		if viaWriteTo {
			_, err = r.WriteTo(&buf)
		} else {
			_, err = buf.ReadFrom(readerOnly{r})
		}
		return buf.Bytes(), err
	}
	for _, viaWriteTo := range []bool{false, true} {
		if got, err := read(viaWriteTo); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("intact stream (WriteTo %v): %d bytes, %v", viaWriteTo, len(got), err)
		}
	}
	flipped := bytes.Clone(data)
	flipped[len(flipped)/2] ^= 1
	if err := os.WriteFile(s.Path(hash), flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, viaWriteTo := range []bool{false, true} {
		if _, err := read(viaWriteTo); err == nil || !strings.Contains(err.Error(), "corrupted") {
			t.Fatalf("stream of a flipped byte (WriteTo %v): %v", viaWriteTo, err)
		}
	}
	if _, err := s.Stream("zz"); err == nil {
		t.Fatal("Stream accepted a malformed hash")
	}
}
