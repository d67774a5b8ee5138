package ncc

// Word is the simplest payload: a single machine word standing for
// Theta(log n) bits.
type Word uint64

// Words implements Payload.
func (Word) Words() int { return 1 }

// Words2 is a two-word payload.
type Words2 [2]uint64

// Words implements Payload.
func (Words2) Words() int { return 2 }

// WordsN is a payload of len(w) machine words. Sending a WordsN through
// Context.Send (or Context.SendWords, which takes the raw slice) copies the
// words into a per-node arena, so wide payloads travel without interface
// boxing just like Word and Words2; the receiver reads them back with
// Context.Words.
type WordsN []uint64

// Words implements Payload.
func (w WordsN) Words() int { return len(w) }
