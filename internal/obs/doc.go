// Package obs is the run-trace telemetry plane: it serializes the engine's
// per-round probe samples (ncc.RoundSample) into a canonical NDJSON trace,
// parses and validates traces, and renders the analyses behind the ncctrace
// CLI (summary, diff, phase export).
//
// # Trace format (version 1)
//
// A trace is newline-delimited JSON. Every line is an object whose first key
// is "t", the line type:
//
//	{"t":"h","v":1,"run":0,"scenario":"sha256:…","algo":"broadcast","graph":"ring",
//	 "n":128,"seed":1,"cap":56}
//	{"t":"r","round":0,"msgs":128,"delivered":128,"words":128,"active":128,
//	 "maxSend":1,"maxRecv":1,"maxRecvDelivered":1}
//	{"t":"e","run":0,"rounds":12,"msgs":1536,"words":1536}
//
// A run segment is one header ("h"), the run's round samples ("r") in order,
// and one end line ("e"). Segments appear in submission order with run
// indices 0, 1, 2, …, so one trace covers a whole sweep. Zero-valued rare
// fields (finished, down, the throttle and drop counters, failed) are
// omitted. A scenario whose driver executes more than one engine run emits
// all its rounds into a single segment; the round index resetting to 0 marks
// the inner boundary.
//
// Optionally, a timing line may follow each round line:
//
//	{"t":"g","round":0,"shards":[[1200,3400,5600,8800],…]}
//
// with one [barrierWaitNanos, sendNanos, recvNanos, computeNanos] entry per
// delivery shard; computeNanos is the shard's program-compute span (release
// to its last arrival). Lines from traces that predate the compute span carry
// three elements and read as compute 0. Timing lines are non-canonical: they
// measure the host, not the algorithm, and they vary run to run.
//
// # Stability guarantees
//
// Canonical lines ("h", "r", "e") are a pure function of the scenario — graph,
// seed, capacity model, fault schedule — and never of worker count, host
// speed, or scheduling. For a fixed scenario the canonical byte stream is
// identical across worker counts and across local, cluster, and cached
// execution; CI asserts this. The content hash (Hash) covers canonical lines
// only, so a trace captured with timing hashes identically to one without.
//
// Within version 1, existing fields keep their names and meanings; new
// OPTIONAL fields may be added (consumers must ignore unknown keys, which is
// why hashes are computed over the bytes as written, never re-serialized).
// Any incompatible change bumps "v", and Parse rejects versions it does not
// know.
//
// Failed runs record only {"failed":true} — error text is
// scheduling-dependent and would break byte-identity.
package obs
