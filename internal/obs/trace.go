package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"ncc/internal/ncc"
)

// Version is the trace format version emitted by this package; Parse rejects
// any other. See doc.go for the format and its stability guarantees.
const Version = 1

// Header identifies one engine run inside a trace: which scenario (by its
// canonical content hash), which algorithm and graph, and the model
// parameters the per-round samples should be read against.
type Header struct {
	Scenario string // canonical scenario hash (scenario.Scenario.Hash)
	Algo     string
	Graph    string
	N        int
	Seed     int64
	Cap      int
}

// End summarizes one engine run: the round count and cumulative traffic the
// engine reported, and whether the run failed. Failure is recorded as a flag
// only — error text is scheduling-dependent and would break byte-identity.
type End struct {
	Rounds int
	Msgs   int64
	Words  int64
	Failed bool
}

// RoundTiming is the parsed form of a non-canonical timing line: per-shard
// [barrier-wait, send, recv, compute] nanoseconds for one round. Lines
// written before the compute span existed carry three elements and parse
// with compute 0.
type RoundTiming struct {
	Round  int
	Shards [][4]int64
}

// Wire types. Field order is the serialization order; "t" MUST stay first —
// the canonical filter and the parser's type probe rely on the prefix.
type headerLine struct {
	T        string `json:"t"`
	V        int    `json:"v"`
	Run      int    `json:"run"`
	Scenario string `json:"scenario,omitempty"`
	Algo     string `json:"algo,omitempty"`
	Graph    string `json:"graph,omitempty"`
	N        int    `json:"n"`
	Seed     int64  `json:"seed"`
	Cap      int    `json:"cap"`
}

// roundLine is the parser's schema for round lines and the oracle for
// appendRound, which writes them: a field added here is added there, at the
// same position.
type roundLine struct {
	T                 string `json:"t"`
	Round             int    `json:"round"`
	Msgs              int    `json:"msgs"`
	Delivered         int    `json:"delivered"`
	Words             int    `json:"words"`
	Active            int    `json:"active"`
	Finished          int    `json:"finished,omitempty"`
	Down              int    `json:"down,omitempty"`
	MaxSend           int    `json:"maxSend"`
	MaxRecv           int    `json:"maxRecv"`
	MaxRecvDelivered  int    `json:"maxRecvDelivered"`
	RecvThrottled     int    `json:"recvThrottled,omitempty"`
	DroppedFault      int    `json:"droppedFault,omitempty"`
	DroppedDead       int    `json:"droppedDead,omitempty"`
	DroppedToFinished int    `json:"droppedToFinished,omitempty"`
}

type endLine struct {
	T      string `json:"t"`
	Run    int    `json:"run"`
	Rounds int    `json:"rounds"`
	Msgs   int64  `json:"msgs"`
	Words  int64  `json:"words"`
	Failed bool   `json:"failed,omitempty"`
}

type timingLine struct {
	T      string     `json:"t"`
	Round  int        `json:"round"`
	Shards [][4]int64 `json:"shards"`
}

// mustMarshal serializes a wire line; the wire types cannot fail to marshal.
func mustMarshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("obs: marshal trace line: %v", err))
	}
	return b
}

func marshalHeader(run int, h Header) []byte {
	return mustMarshal(headerLine{
		T: "h", V: Version, Run: run,
		Scenario: h.Scenario, Algo: h.Algo, Graph: h.Graph,
		N: h.N, Seed: h.Seed, Cap: h.Cap,
	})
}

// appendRound appends s's round line and its newline to b. The bytes are
// exactly what json.Marshal writes for the equivalent roundLine — same keys
// in the same order, omitempty fields dropped at zero — but without
// reflection or allocation; FuzzTraceRound holds it to that oracle.
func appendRound(b []byte, s ncc.RoundSample) []byte {
	b = append(b, `{"t":"r"`...)
	b = appendInt(b, `,"round":`, s.Round)
	b = appendInt(b, `,"msgs":`, s.Messages)
	b = appendInt(b, `,"delivered":`, s.Delivered)
	b = appendInt(b, `,"words":`, s.Words)
	b = appendInt(b, `,"active":`, s.Active)
	b = appendNonzero(b, `,"finished":`, s.Finished)
	b = appendNonzero(b, `,"down":`, s.Down)
	b = appendInt(b, `,"maxSend":`, s.MaxSendLoad)
	b = appendInt(b, `,"maxRecv":`, s.MaxRecvOffered)
	b = appendInt(b, `,"maxRecvDelivered":`, s.MaxRecvDelivered)
	b = appendNonzero(b, `,"recvThrottled":`, s.RecvThrottled)
	b = appendNonzero(b, `,"droppedFault":`, s.DroppedFault)
	b = appendNonzero(b, `,"droppedDead":`, s.DroppedDead)
	b = appendNonzero(b, `,"droppedToFinished":`, s.DroppedToFinished)
	return append(b, "}\n"...)
}

func appendInt(b []byte, key string, v int) []byte {
	return strconv.AppendInt(append(b, key...), int64(v), 10)
}

// appendNonzero is appendInt for an omitempty field.
func appendNonzero(b []byte, key string, v int) []byte {
	if v == 0 {
		return b
	}
	return appendInt(b, key, v)
}

func marshalEnd(run int, st ncc.Stats, failed bool) []byte {
	return mustMarshal(endLine{
		T: "e", Run: run, Rounds: st.Rounds,
		Msgs: st.Messages, Words: st.Words, Failed: failed,
	})
}

func marshalTiming(round int, timing []ncc.ShardTiming) []byte {
	shards := make([][4]int64, len(timing))
	for i, t := range timing {
		shards[i] = [4]int64{t.BarrierWaitNanos, t.SendNanos, t.RecvNanos, t.ComputeNanos}
	}
	return mustMarshal(timingLine{T: "g", Round: round, Shards: shards})
}

// timingPrefix is the serialized prefix of every non-canonical line. The
// serializer above guarantees "t" is the first key, so a prefix test is an
// exact type test for traces this package wrote.
var timingPrefix = []byte(`{"t":"g"`)

// newline terminates every NDJSON line; shared so writing it to an
// io.Writer allocates nothing.
var newline = []byte{'\n'}

func isTimingLine(line []byte) bool {
	return len(line) >= len(timingPrefix) && string(line[:len(timingPrefix)]) == string(timingPrefix)
}

// Hash returns the canonical content hash of a trace given its NDJSON lines
// (without trailing newlines), as "sha256:<hex>". Non-canonical timing lines
// are excluded, so a trace recorded with timing hashes identically to the
// same trace recorded without.
func Hash(lines [][]byte) string {
	h := sha256.New()
	for _, line := range lines {
		if isTimingLine(line) {
			continue
		}
		h.Write(line)
		h.Write(newline)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

// Join renders trace lines back to NDJSON bytes (one trailing newline per
// line), the exact byte stream a trace file or HTTP trace stream carries.
func Join(lines [][]byte) []byte {
	n := 0
	for _, l := range lines {
		n += len(l) + 1
	}
	out := make([]byte, 0, n)
	for _, l := range lines {
		out = append(out, l...)
		out = append(out, '\n')
	}
	return out
}
