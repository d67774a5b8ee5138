package service

import (
	"bytes"
	"slices"
	"strings"
	"sync"

	"ncc/internal/blob"
)

// cache is the content-addressed result cache: canonical scenario hash -> the
// exact NDJSON record lines one executed sweep streamed (so a hit is
// byte-identical to the run that populated it) plus its telemetry trace
// (traces are deterministic). Entries live in a memory FIFO and, with a
// directory, in a blob store: each stream is a verified <sha256>.ndjson blob
// and <scenarioHash>.ref names the pair, so a restarted daemon keeps serving
// past results and a damaged entry reads as a miss. With a directory, a
// trace that did not come from this process's own engine (a disk hit, or a
// trace a coordinator proxied from a worker) stays in the blob store: the
// memory entry holds a reference to it, and serving it streams the blob.
type cache struct {
	mu   sync.Mutex // held across disk reads; cache traffic is not a hot path
	mem  map[string]cacheEntry
	fifo []string    // insertion order of mem keys, oldest first
	max  int         // in-memory entry bound; evicted FIFO (disk keeps all)
	disk *blob.Store // nil without a cache directory
}

// cacheEntry is one completed sweep: its record lines and its trace, which
// is either lines in memory or, when traceBlob is set, a blob in the store.
type cacheEntry struct {
	lines, trace [][]byte
	traceBlob    blobRef
}

func newCache(dir string, maxEntries int) (c *cache, err error) {
	c = &cache{mem: map[string]cacheEntry{}, max: maxEntries}
	if dir != "" {
		c.disk, err = blob.Open(dir, ".ndjson")
	}
	return c, err
}

// get returns the cached sweep for hash, consulting memory first and the
// disk second (a disk hit is promoted into memory). A disk hit loads the
// records and verifies the trace blob without loading it: the entry keeps
// the trace as a blob reference.
func (c *cache) get(hash string) (e cacheEntry, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.mem[hash]; ok {
		return e, true
	}
	if c.disk == nil {
		return e, false
	}
	// The ref holds "<recordsHash> <traceHash>"; any unreadable, truncated
	// or corrupted piece is a miss, so the job re-executes and re-puts.
	ref, err := c.disk.Ref(hash)
	hashes := strings.Fields(string(ref))
	if err != nil || len(hashes) != 2 {
		return e, false
	}
	data, err := c.disk.Get(hashes[0])
	if err != nil {
		return e, false
	}
	if len(data) > 0 {
		e.lines = bytes.Split(data[:len(data)-1], newline)
	}
	if e.traceBlob, err = c.verifyTrace(hashes[1]); err != nil {
		return cacheEntry{}, false
	}
	c.storeLocked(hash, e)
	return e, true
}

// verifyTrace reads the trace blob under hash through, checking its bytes
// and counting its lines, and returns a reference to it.
func (c *cache) verifyTrace(hash string) (blobRef, error) {
	r, err := c.disk.Stream(hash)
	if err != nil {
		return blobRef{}, err
	}
	defer r.Close()
	var lc lineCounter
	if _, err := r.WriteTo(&lc); err != nil {
		return blobRef{}, err
	}
	return blobRef{store: c.disk, hash: hash, lines: lc.lines}, nil
}

// storeLocked inserts an in-memory entry, evicting the oldest entries beyond
// the bound. Callers hold c.mu.
func (c *cache) storeLocked(hash string, e cacheEntry) {
	if _, exists := c.mem[hash]; !exists {
		c.fifo = append(c.fifo, hash)
	}
	c.mem[hash] = e
	// Every live key appears exactly once in fifo, so this terminates.
	for c.max > 0 && len(c.mem) > c.max {
		old := c.fifo[0]
		c.fifo = c.fifo[1:]
		if old == hash { // never evict the entry just stored
			c.fifo = append(c.fifo, old)
			continue
		}
		delete(c.mem, old)
	}
}

// drop removes hash's memory entry if it still references the trace blob
// blobHash, found damaged while serving it. The next lookup then reads the
// disk tier, which verifies the blob and misses, so the scenario
// re-executes and its put repairs the blob.
func (c *cache) drop(hash, blobHash string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.mem[hash]; !ok || e.traceBlob.hash != blobHash {
		return
	}
	delete(c.mem, hash)
	c.fifo = slices.DeleteFunc(c.fifo, func(k string) bool { return k == hash })
}

// put stores a completed sweep under hash. It is best-effort: an error
// means the entry may not persist, not that the job failed. Lines go
// straight into their blob files; a trace already in the store (proxied by a
// coordinator, or a disk hit) is not written again. The ref is written last,
// so a crash never leaves it naming a missing blob.
func (c *cache) put(hash string, e cacheEntry) error {
	c.mu.Lock()
	c.storeLocked(hash, e)
	c.mu.Unlock()
	if c.disk == nil {
		return nil
	}
	records, err := c.disk.Put(&linesReader{lines: e.lines}, nil)
	if err != nil {
		return err
	}
	trace := e.traceBlob.hash
	if !e.traceBlob.ok() {
		if trace, err = c.disk.Put(&linesReader{lines: e.trace}, nil); err != nil {
			return err
		}
	}
	return c.disk.PutRef(hash, []byte(records+" "+trace))
}

// len reports the number of in-memory entries (metrics).
func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.mem)
}
