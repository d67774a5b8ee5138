package service

import (
	"bytes"
	"strings"
	"sync"

	"ncc/internal/blob"
	"ncc/internal/obs"
)

// cache is the content-addressed result cache: canonical scenario hash -> the
// exact NDJSON record lines one executed sweep streamed (so a hit is
// byte-identical to the run that populated it) plus its telemetry trace
// (traces are deterministic). Entries live in a memory FIFO and, with a
// directory, in a blob store: each stream is a verified <sha256>.ndjson blob
// and <scenarioHash>.ref names the pair, so a restarted daemon keeps serving
// past results and a damaged entry reads as a miss.
type cache struct {
	mu   sync.Mutex // held across disk reads; cache traffic is not a hot path
	mem  map[string]cacheEntry
	fifo []string    // insertion order of mem keys, oldest first
	max  int         // in-memory entry bound; evicted FIFO (disk keeps all)
	disk *blob.Store // nil without a cache directory
}

type cacheEntry struct{ lines, trace [][]byte }

func newCache(dir string, maxEntries int) (c *cache, err error) {
	c = &cache{mem: map[string]cacheEntry{}, max: maxEntries}
	if dir != "" {
		c.disk, err = blob.Open(dir, ".ndjson")
	}
	return c, err
}

// get returns the cached record and trace lines for hash, consulting memory
// first and the disk second (a disk hit is promoted into memory). The trace
// is nil when the populating run recorded none.
func (c *cache) get(hash string) (lines, trace [][]byte, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.mem[hash]; ok {
		return e.lines, e.trace, true
	}
	if c.disk == nil {
		return nil, nil, false
	}
	// The ref holds "<recordsHash> <traceHash>"; any unreadable, truncated
	// or corrupted piece is a miss, so the job re-executes and re-puts.
	ref, err := c.disk.Ref(hash)
	hashes := strings.Fields(string(ref))
	if err != nil || len(hashes) != 2 {
		return nil, nil, false
	}
	var streams [2][][]byte
	for i, h := range hashes {
		data, err := c.disk.Get(h)
		if err != nil {
			return nil, nil, false
		}
		if len(data) > 0 {
			streams[i] = bytes.Split(data[:len(data)-1], []byte{'\n'})
		}
	}
	e := cacheEntry{lines: streams[0], trace: streams[1]}
	c.storeLocked(hash, e)
	return e.lines, e.trace, true
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

// put stores a completed sweep's record and trace lines under hash. It is
// best-effort: an error means the entry may not persist, not that the job
// failed. The ref is written last, so a crash never leaves it naming a
// missing blob.
func (c *cache) put(hash string, lines, trace [][]byte) error {
	c.mu.Lock()
	c.storeLocked(hash, cacheEntry{lines: lines, trace: trace})
	c.mu.Unlock()
	if c.disk == nil {
		return nil
	}
	var hashes []string
	for _, stream := range [][][]byte{lines, trace} {
		h, err := c.disk.Put(bytes.NewReader(obs.Join(stream)), nil)
		if err != nil {
			return err
		}
		hashes = append(hashes, h)
	}
	return c.disk.PutRef(hash, []byte(strings.Join(hashes, " ")))
}

// len reports the number of in-memory entries (metrics).
func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.mem)
}
