// Package service turns the one-shot scenario runner into a long-lived
// execution service: the HTTP daemon behind cmd/nccd. Clients POST the same
// declarative scenario JSON the CLIs consume; the server validates it against
// the algorithm and graph registries, executes it, and streams the resulting
// scenario Records back as NDJSON — live, while the sweep is still running.
//
// # Architecture: one job pipeline behind one HTTP surface
//
// Server is a thin HTTP layer over one job pipeline; only the backend at its
// end differs between a daemon that runs jobs and a coordinator:
//
//	  ┌────────────────────────── Server (HTTP) ──────────────────────────┐
//	  │  POST /v1/jobs   GET /v1/jobs[/{id}[/records|/trace]]   /metrics  │
//	  └──────┬──────────────────┬──────────────────────┬──────────────────┘
//	         │ admit            │ serveLog             │ lookup
//	         ▼                  ▼                      ▼
//	   ┌──────────┐       ┌───────────┐          ┌───────────┐
//	   │ JobStore │       │    Job    │          │   cache   │ memory FIFO
//	   └────┬─────┘       │ records,  │          └──┬─────┬──┘
//	        │ submit      │ trace     │     get/put │     │ refs + blobs
//	        ▼             └─────▲─────┘             │     ▼
//	┌─────────────────┐         │ append            │  ┌────────────┐
//	│    pipeline     │ ◄───────┼───────────────────┘  │ blob.Store │
//	│ queue, dispatch │         │                      │ (optional) │
//	│ finish, drain   │         │                      └────────────┘
//	└────────┬────────┘         │
//	         │ acquire, run     │
//	         ▼                  │
//	┌─────────────────┐         │
//	│   ExecBackend   │ ────────┘
//	│ Local │ Remote  │
//	└─────────────────┘
//
// JobStore owns admission (with drain refusal and in-flight coalescing under
// one lock), id assignment, retention pruning of terminal jobs, lookup, and
// filtered listing. The pipeline owns the lifecycle of every job admitted on
// a cache miss: a bounded FIFO queue (a full one answers 429 with
// Retry-After), one dispatcher, one finish and one drain. The dispatcher
// serves the head job from the cache if a twin's result landed there since
// admission, or else waits for a free slot of the backend, marks the job
// running and runs it there on a goroutine of its own; finish fills the
// cache before a job that ran to completion turns terminal. The pipeline
// keeps every jobs_* series, the job latency histogram and the log lines,
// and its counters move before the state a client reads: a job leaves the
// queued gauge the moment it gets a slot, a cached result or a cancel, and
// is counted done before it reads done. ExecBackend is what differs between
// the modes: LocalBackend's slots are its executors, where a job runs its
// sweep on the two-level scheduler below; RemoteBackend's are the job slots
// of registered workers, where a job runs by proxying a worker's streams.
// Either way the records and the trace are two append-only logs on the Job
// (the trace may instead be one stored blob, see below), which serveLog
// streams to any number of tails, live or replayed. The cache is the content-addressed
// result cache: an in-memory FIFO over an optional blob store on disk.
//
// # Local scheduling
//
// Scheduling is two-level. A fixed number of executor slots bounds the jobs
// that run concurrently, while each job's expanded runs stay sequential, so a job's record stream is
// ordered exactly like a local sweep. Engine parallelism comes from a global
// worker budget shared across jobs: before each run a job acquires
// between 1 and ncc.DefaultWorkers(n) tokens — the count the engine would
// use at the run's size, or the model's explicit worker count, as far as the
// budget can spare — and hands the engine exactly that many delivery
// workers. Acquisition is ticket-ordered FIFO and tokens return between
// runs, so a million-node sweep can saturate the budget only until its
// current run ends; a small request waits for one run, never for a whole
// sweep. Results are bit-identical across worker counts (an engine
// invariant), so the scheduler's worker assignment is invisible in the
// records.
//
// # Result cache and coalescing
//
// Completed sweeps land in a content-addressed result cache keyed by the
// canonical scenario hash (scenario.Hash): JSON key order, spelled-out
// defaults, display names, worker counts, and sweep-axis order all
// canonicalize away, so a semantically identical re-submission is answered
// instantly from memory — or from the cache directory, which persists each
// sweep across restarts in a blob store: <scenarioHash>.ref names the
// records and trace blobs (<sha256>.ndjson), which are checked on read, so a
// damaged entry is a miss that re-executes. A sweep enters the cache
// before its job turns done, so a re-submission sent the moment the first
// stream ends is already a hit. A put writes each stream's lines straight
// into its blob file.
//
// Where a trace lives: a daemon that ran the simulation keeps the trace
// lines in memory, in the job and its memory-cache entry. With a cache
// directory, a trace that reaches the daemon over the network — a worker's
// trace proxied by a coordinator — is streamed straight into the blob
// store, and a disk hit verifies its trace blob without loading it. Either
// way the job and the entry hold only a reference (hash and line count),
// and GET /v1/jobs/{id}/trace streams the blob, hashing as it goes and
// aborting the response on a mismatch. Without a cache directory every
// trace stays in memory. Cached streams replay the exact bytes the
// original execution produced. The same hash also coalesces
// in-flight duplicates: submitting a scenario identical to one still queued
// or running returns that job (HTTP 200 instead of 201) rather than
// executing it twice.
//
// # Cluster mode
//
// NewCoordinator builds the same Server over a RemoteBackend: the
// coordinator executes nothing itself. Worker daemons — ordinary standalone
// nccd processes plus a Joiner heartbeat loop — register via POST
// /v1/workers with an advertised URL and capacity; registration doubles as
// the heartbeat, and workers that miss the TTL are expired. The pipeline's
// dispatcher takes admitted jobs FIFO, as on any daemon; the backend places
// each on the live worker with the most free slots, then proxies the
// worker's record stream back into the job byte-for-byte, so clients cannot
// tell a proxied stream from a local one. The worker's trace follows the
// record stream, into the blob store when the coordinator has a cache
// directory.
//
// Failover leans on determinism: the engine is bit-identical for a given
// scenario, and the canonical hash makes execution idempotent. When a worker
// dies mid-run — its stream breaks, its heartbeat lapses, or it deregisters
// during drain — the coordinator re-dispatches the job to another worker and
// skips the prefix of lines it already holds; the client-visible stream is
// still byte-identical to a local run. A job is failed only after JobAttempts
// distinct dispatch attempts.
//
// # Talking to a daemon
//
// Client is the one way any process talks to a daemon: nccrun -remote and
// ncccampaign -remote, a coordinator dispatching to its workers, and a
// worker registering, heartbeating and fetching graphs from its
// coordinator. It owns the base URL, the bearer token, request building and
// the decoding of every non-2xx answer into one *APIError. NewClient uses
// the default transport, for interactive CLIs; NewClusterClient bounds the
// dial and the wait for response headers, for the cluster roles, whose
// peers may die. A record stream sends its headers at once, so a bounded
// header wait holds even for a job that is still queued.
//
// # Cancellation and drain
//
// Cancellation is wired through the engine's abort path (ncc.Config.Cancel):
// at the end of the round in which a job is canceled, the engine resumes
// each node program suspended in the run into an abort that unwinds it, so
// even a run mid-sweep ends within one round. A queued job is skipped by the
// dispatcher. A coordinator forwards the cancel to whichever worker holds
// the job. Drain uses the same machinery for graceful shutdown: stop
// accepting (503), finish what is queued and running,
// cancel whatever outlives the grace period. A draining worker deregisters
// first, so its coordinator re-dispatches rather than waiting out the TTL.
package service
