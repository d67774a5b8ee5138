package ncc

import (
	"cmp"
	"math/bits"
)

// nodeSet is a bitmap of node ids laid out shard by shard: shard j's nodes
// lo..hi-1 are bits 0..hi-lo-1 of words[j*stride : (j+1)*stride]. A delivery
// worker writes only its own shard's words, so the shards of one set are
// built in parallel without atomics, and walking a shard costs O(members +
// width/64).
type nodeSet struct {
	words  []uint64
	stride int // words per shard: ceil(width / 64)
	width  int // nodes per shard (run.shardWidth)
}

// shard returns shard j's words.
func (s *nodeSet) shard(j int) []uint64 {
	return s.words[j*s.stride : (j+1)*s.stride]
}

// add puts node id, of shard j, into the set. During a delivery phase only
// shard j's worker may call it. Callers pass the shard they already know,
// which spares a division per node.
func (s *nodeSet) add(j int, id NodeID) {
	k := id - j*s.width
	s.words[j*s.stride+k>>6] |= 1 << (k & 63)
}

// next returns the smallest member of shard j that is >= id, or -1. A shard
// is walked in ascending id order by
//
//	for id := s.first(j); id >= 0; id = s.next(j, id+1)
func (s *nodeSet) next(j int, id NodeID) NodeID {
	k := id - j*s.width
	if k >= s.width {
		return -1
	}
	if word := s.words[j*s.stride+k>>6] >> (k & 63); word != 0 {
		return id + bits.TrailingZeros64(word)
	}
	return s.from(j, k>>6+1)
}

// first returns the smallest member of shard j, or -1.
func (s *nodeSet) first(j int) NodeID { return s.from(j, 0) }

// from returns the smallest member of shard j in its words w and up, or -1.
func (s *nodeSet) from(j, w int) NodeID {
	ws := s.shard(j)
	for ; w < len(ws); w++ {
		if ws[w] != 0 {
			return j*s.width + w<<6 + bits.TrailingZeros64(ws[w])
		}
	}
	return -1
}

// count returns the number of members in shard j.
func (s *nodeSet) count(j int) int32 {
	var c int
	for _, w := range s.shard(j) {
		c += bits.OnesCount64(w)
	}
	return int32(c)
}

// timer asks the engine to wake node id once the round count reaches at.
type timer struct {
	at int
	id NodeID
}

func cmpTimer(a, b timer) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// timerHeap is a min-heap of timers by round. A timer is never removed
// early: one left stale by an early wake, a re-sleep or a finish is dropped
// when it surfaces, or when the heap is compacted, because it no longer
// matches its node (see recvPhase).
type timerHeap []timer

func (h *timerHeap) push(t timer) {
	*h = append(*h, t)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p].at <= s[i].at {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *timerHeap) pop() timer {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(s) {
			break
		}
		if c+1 < len(s) && s[c+1].at < s[c].at {
			c++
		}
		if s[i].at <= s[c].at {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
	return top
}
