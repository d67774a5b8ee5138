// Package service turns the one-shot scenario runner into a long-lived
// execution service: the HTTP daemon behind cmd/nccd. Clients POST the same
// declarative scenario JSON the CLIs consume; the server validates it against
// the algorithm and graph registries, executes it, and streams the resulting
// scenario Records back as NDJSON — live, while the sweep is still running.
//
// # Architecture: four seams behind one HTTP surface
//
// Server is a thin HTTP layer over four components, each replaceable behind
// an interface or a small struct:
//
//	    ┌──────────────────────── Server (HTTP) ───────────────────────┐
//	    │  POST /v1/jobs   GET /v1/jobs[/{id}[/records]]   /metrics    │
//	    └──────┬──────────────────┬─────────────────────┬──────────────┘
//	           │ admit            │ stream              │ lookup
//	           ▼                  ▼                     ▼
//	     ┌──────────┐       ┌───────────┐         ┌───────────┐
//	     │ JobStore │       │ StreamHub │         │ CacheTier │
//	     └────┬─────┘       └───────────┘         └─────┬─────┘
//	          │ Submit                                  │ get/put
//	          ▼                                         │
//	┌───────────────────┐                               │
//	│    ExecBackend    │ ◄─────────────────────────────┘
//	│ Local │  Remote   │
//	└───────────────────┘
//
// JobStore owns the job lifecycle: admission (with drain refusal and
// in-flight coalescing under one lock), id assignment, retention pruning of
// terminal jobs, lookup, and filtered listing. ExecBackend runs an admitted
// job: LocalBackend executes in-process on the two-level scheduler below;
// RemoteBackend (coordinator mode) shards jobs across registered worker
// daemons and proxies their streams. StreamHub serves a job's NDJSON record
// stream to any number of concurrent tails, live or replayed. CacheTier is
// the content-addressed result cache; the default implementation layers an
// in-memory FIFO over an optional on-disk directory.
//
// # Local scheduling
//
// Scheduling is two-level. A fixed set of executors runs jobs concurrently
// while each job's expanded runs stay sequential, so a job's record stream is
// ordered exactly like a local sweep. Engine parallelism comes from a global
// worker budget shared across jobs: before each run an executor acquires
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
// sweep as one <hash>.ndjson file across restarts. A sweep enters the cache
// before its job turns done, so a re-submission sent the moment the first
// stream ends is already a hit. Cached streams replay the exact bytes the
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
// the heartbeat, and workers that miss the TTL are expired. A dispatcher
// pulls admitted jobs FIFO and places each on the live worker with the most
// free slots, then proxies the worker's record stream back into the job
// byte-for-byte, so clients cannot tell a proxied stream from a local one.
//
// Failover leans on determinism: the engine is bit-identical for a given
// scenario, and the canonical hash makes execution idempotent. When a worker
// dies mid-run — its stream breaks, its heartbeat lapses, or it deregisters
// during drain — the coordinator re-dispatches the job to another worker and
// skips the prefix of lines it already holds; the client-visible stream is
// still byte-identical to a local run. A job is failed only after JobAttempts
// distinct dispatch attempts.
//
// # Cancellation and drain
//
// Cancellation is wired through the engine's abort path (ncc.Config.Cancel):
// canceling a job releases the round barrier with the abort bit set, so even
// a run mid-sweep unwinds within one round. A coordinator forwards the cancel
// to whichever worker holds the job. Drain uses the same machinery for
// graceful shutdown: stop accepting (503), finish what is queued and running,
// cancel whatever outlives the grace period. A draining worker deregisters
// first, so its coordinator re-dispatches rather than waiting out the TTL.
package service
