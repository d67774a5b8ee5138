package ncc

import "unsafe"

// Envelope is a message in transit. It holds no pointer, so the outboxes
// and buckets every message is copied through each round are arrays the
// garbage collector never scans and copies that need no write barriers. A
// message is 1..MaxWords machine words and its width says where they are:
// one word in a, two in a and b, and three or more in the sending node's
// word arena at offset a. The engine resolves that offset during delivery,
// while the sender is suspended; a probe sees only From, To and Words().
// From and To are node ids, stored as int32 (Config.N is at most
// math.MaxInt32).
type Envelope struct {
	From, To int32
	a, b     uint64
	width    int32
}

// envelopeBytes is the in-memory size of one Envelope, used by the engine's
// provisioning heuristics.
const envelopeBytes = int(unsafe.Sizeof(Envelope{}))

// Words reports the payload width in machine words.
func (e *Envelope) Words() int { return int(e.width) }

// Received is a message delivered to a node at a round barrier. Like
// Envelope it holds no pointer, so inboxes are arrays the garbage collector
// never scans: one- and two-word payloads are stored inline, and a wider
// one as an offset into the receiving node's word arena. AsWord and AsWords2
// read the inline forms and the receiving Context's Words the arena-backed
// ones. The steady-state delivery path performs no heap allocation per
// message.
type Received struct {
	From  NodeID
	a, b  uint64
	width int32
}

// received converts an in-transit envelope into its delivered form. For a
// multi-word payload the engine's receive phase copies the words out of the
// sender's arena (recycled as soon as the sender resumes) into the
// receiver's and stores their offset in a.
func (e *Envelope) received() Received {
	return Received{From: NodeID(e.From), a: e.a, b: e.b, width: e.width}
}

// AsWord returns the payload as a Word without boxing, and whether the
// message carried exactly one word.
func (m *Received) AsWord() (Word, bool) {
	if m.width == 1 {
		return Word(m.a), true
	}
	return 0, false
}

// AsWords2 returns the payload as a Words2 without boxing, and whether the
// message carried exactly two words.
func (m *Received) AsWords2() (Words2, bool) {
	if m.width == 2 {
		return Words2{m.a, m.b}, true
	}
	return Words2{}, false
}

// Words returns the payload words of m, a multi-word (3+) message from this
// node's inbox, without boxing, and whether m carried one. The slice aliases
// the node's word arena and is only valid until its next EndRound, exactly
// like the inbox itself, and never after Run returns: the next run reuses
// the arena.
func (c *Context) Words(m *Received) ([]uint64, bool) {
	if m.width > 2 {
		return c.arenaWords(m), true
	}
	return nil, false
}

// arenaWords is the arena slice of a multi-word message, capped at its
// width so an append by the caller cannot overwrite the next payload.
func (c *Context) arenaWords(m *Received) []uint64 {
	end := m.a + uint64(m.width)
	return c.inWords[m.a:end:end]
}
