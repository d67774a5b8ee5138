package obs

import (
	"bytes"
	"slices"
	"sync"

	"ncc/internal/ncc"
)

// Collector turns a sequence of engine runs into a trace. Attach its Probe to
// each run's Config, then seal the run with FinishRun; segments accumulate in
// submission order, so one Collector traces a whole sweep.
//
// A Collector is not safe for concurrent use: the probe runs on the engine's
// coordinator goroutine, so the caller must finish one run before starting
// the next (the execution layers here run a job's scenarios sequentially,
// which is also what keeps traces deterministic).
type Collector struct {
	// WithTiming interleaves non-canonical per-shard timing lines ("g") after
	// each round line. Timing lines never enter the canonical hash.
	WithTiming bool

	run     int
	scratch *[]byte  // current run's round (and timing) lines, newline-terminated; from scratchPool
	sealed  [][]byte // completed segments' lines, sub-slices of one buffer per segment
	taken   bool
}

// scratchPool recycles the probe's append buffers across runs and
// collectors: a run's round lines are encoded into one buffer, copied once
// into the sealed segment, and the buffer goes back for the next run.
var scratchPool = sync.Pool{New: func() any { return new([]byte) }}

// Probe returns the ncc.RoundProbe feeding this collector. Once the scratch
// buffer has grown to a run's size, a round costs no allocation.
func (c *Collector) Probe() ncc.RoundProbe {
	return func(s ncc.RoundSample, timing []ncc.ShardTiming) {
		if c.scratch == nil {
			c.scratch = scratchPool.Get().(*[]byte)
		}
		buf := appendRound(*c.scratch, s)
		if c.WithTiming {
			buf = append(append(buf, marshalTiming(s.Round, timing)...), '\n')
		}
		*c.scratch = buf
	}
}

// FinishRun seals the current run: a header line, the buffered round lines,
// and an end line join the trace, and the next run's segment begins. The
// header is written here — not before the run — because its fields (N, Cap)
// are only known once the scenario's graph has been built.
//
// The segment is one buffer of exactly its NDJSON size, so a trace kept alive
// (in a job's log or the result cache) holds no slack; its lines are
// sub-slices of it.
func (c *Collector) FinishRun(h Header, st ncc.Stats, failed bool) {
	head := marshalHeader(c.run, h)
	end := marshalEnd(c.run, st, failed)
	var body []byte
	if c.scratch != nil {
		body = *c.scratch
	}
	seg := make([]byte, 0, len(head)+1+len(body)+len(end)+1)
	seg = append(append(seg, head...), '\n')
	seg = append(seg, body...)
	seg = append(append(seg, end...), '\n')
	if c.scratch != nil {
		*c.scratch = body[:0]
		scratchPool.Put(c.scratch)
		c.scratch = nil
	}
	c.sealed = slices.Grow(c.sealed, bytes.Count(seg, newline))
	for len(seg) > 0 {
		i := bytes.IndexByte(seg, '\n')
		c.sealed = append(c.sealed, seg[:i:i])
		seg = seg[i+1:]
	}
	c.run++
}

// TakeLines drains the sealed segments for incremental streaming (lines carry
// no trailing newline, matching the service's record-line convention). After
// a TakeLines, Bytes/Hash only cover later segments — streaming consumers
// keep the full log themselves.
func (c *Collector) TakeLines() [][]byte {
	lines := c.sealed
	c.sealed = nil
	c.taken = true
	return lines
}

// Lines returns the sealed trace lines without draining them.
func (c *Collector) Lines() [][]byte { return c.sealed }

// Bytes renders the sealed trace as NDJSON. It panics after TakeLines: a
// drained collector no longer holds the full trace, and silently returning a
// suffix would corrupt content hashes.
func (c *Collector) Bytes() []byte {
	if c.taken {
		panic("obs: Collector.Bytes after TakeLines")
	}
	return Join(c.sealed)
}

// Hash returns the canonical content hash of the sealed trace (see Hash).
// Like Bytes, it panics after TakeLines.
func (c *Collector) Hash() string {
	if c.taken {
		panic("obs: Collector.Hash after TakeLines")
	}
	return Hash(c.sealed)
}
