package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"testing"

	"ncc/internal/obs"
)

func lines(ss ...string) [][]byte {
	out := make([][]byte, len(ss))
	for i, s := range ss {
		out[i] = []byte(s)
	}
	return out
}

func TestCacheFIFOEviction(t *testing.T) {
	c, err := newCache("", 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := c.put(fmt.Sprintf("h%d", i), cacheEntry{lines: lines(fmt.Sprintf("r%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := c.get("h1"); ok {
		t.Fatal("oldest entry h1 survived past the bound")
	}
	for _, h := range []string{"h2", "h3"} {
		if _, ok := c.get(h); !ok {
			t.Fatalf("entry %s was wrongly evicted", h)
		}
	}
	if n := c.len(); n != 2 {
		t.Fatalf("cache holds %d entries, want 2", n)
	}
	// Re-storing an existing key must not evict it, whatever its age.
	if err := c.put("h2", cacheEntry{lines: lines("r2b")}); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.get("h2"); !ok || !bytes.Equal(got.lines[0], []byte("r2b")) {
		t.Fatalf("re-stored h2 = %q, %v", got.lines, ok)
	}
}

func TestCacheDiskTierOutlivesEviction(t *testing.T) {
	dir := t.TempDir()
	c, err := newCache(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.put("aa11", cacheEntry{lines: lines(`{"x":1}`, `{"x":2}`), trace: lines(`{"t":"h"}`, `{"t":"e"}`)}); err != nil {
		t.Fatal(err)
	}
	if err := c.put("bb22", cacheEntry{lines: lines(`{"y":1}`)}); err != nil {
		t.Fatal(err) // evicts aa11 from memory; its file remains
	}
	got, ok := c.get("aa11")
	if !ok {
		t.Fatal("evicted entry not re-promoted from disk")
	}
	if len(got.lines) != 2 || !bytes.Equal(got.lines[0], []byte(`{"x":1}`)) {
		t.Fatalf("disk round-trip mangled lines: %q", got.lines)
	}
	// The disk hit verified the trace blob and keeps it there: the entry
	// holds a reference with the line count and no lines.
	want := "{\"t\":\"h\"}\n{\"t\":\"e\"}\n"
	if got.trace != nil || got.traceBlob.hash != blobSum(want) || got.traceBlob.lines != 2 {
		t.Fatalf("disk hit trace: %d lines in memory, ref %+v; want a 2-line ref to %s", len(got.trace), got.traceBlob, blobSum(want))
	}
	if data, err := c.disk.Get(got.traceBlob.hash); err != nil || string(data) != want {
		t.Fatalf("trace blob holds %q, %v", data, err)
	}

	// A put of an entry whose trace is already stored writes no trace blob:
	// the put repairs nothing there, so a damaged blob stays damaged.
	if err := os.WriteFile(c.disk.Path(got.traceBlob.hash), []byte("damaged\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.put("cc33", got); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(c.disk.Path(got.traceBlob.hash)); string(data) != "damaged\n" {
		t.Fatalf("put rewrote a stored trace blob: %q", data)
	}
	// A disk hit on either entry now verifies the damaged trace and misses.
	c2, err := newCache(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{"aa11", "cc33"} {
		if _, ok := c2.get(h); ok {
			t.Fatalf("disk hit %s served a damaged trace blob", h)
		}
	}
}

func blobSum(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// TestLinesReader pins the lines reader against obs.Join, through Read in
// small pieces and through WriteTo, after a partial Read too.
func TestLinesReader(t *testing.T) {
	ls := lines(`{"a":1}`, `{"bb":22}`, `x`, `{"cccc":4444}`)
	want := obs.Join(ls)
	for _, size := range []int{1, 3, 7, 64} {
		var got []byte
		r := &linesReader{lines: ls}
		buf := make([]byte, size)
		for {
			n, err := r.Read(buf)
			got = append(got, buf[:n]...)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Read by %d: %q, want %q", size, got, want)
		}
	}
	r := &linesReader{lines: ls}
	head := make([]byte, 10)
	n, _ := r.Read(head)
	var rest bytes.Buffer
	if _, err := r.WriteTo(&rest); err != nil {
		t.Fatal(err)
	}
	if got := append(head[:n], rest.Bytes()...); !bytes.Equal(got, want) {
		t.Fatalf("Read then WriteTo: %q, want %q", got, want)
	}
}

// TestLineCounter checks the canonical-NDJSON check across write
// boundaries: the line count, and that a blank or whitespace-only line or a
// missing last newline is caught.
func TestLineCounter(t *testing.T) {
	for _, tc := range []struct {
		in        string
		lines     int
		canonical bool
	}{
		{"", 0, true},
		{"{}\n", 1, true},
		{"{\"t\":\"h\"}\n {x}\n", 2, true},
		{"{}\n\n{}\n", 3, false},
		{"{}\n \t\n", 2, false},
		{"\n", 1, false},
		{"{}\n{}", 1, false},
	} {
		for split := 0; split <= len(tc.in); split++ {
			var c lineCounter
			c.Write([]byte(tc.in[:split]))
			c.Write([]byte(tc.in[split:]))
			if c.lines != tc.lines || c.canonical() != tc.canonical {
				t.Fatalf("%q split at %d: %d lines canonical=%v, want %d %v", tc.in, split, c.lines, c.canonical(), tc.lines, tc.canonical)
			}
		}
	}
}
