package ncc

// Word is the simplest payload: a single machine word standing for
// Theta(log n) bits. Context.SendWord sends one, Received.AsWord reads it.
type Word uint64

// Words2 is a two-word payload, sent with Context.SendWords2 and read with
// Received.AsWords2. Wider payloads travel as a []uint64 through
// Context.SendWords and Context.Words.
type Words2 [2]uint64
