package service

import (
	"errors"
	"fmt"
	"sync"

	"ncc/internal/scenario"
)

// ErrDraining rejects submissions while the server is shutting down.
var ErrDraining = errors.New("draining, not accepting jobs")

// JobStore owns job bookkeeping: identity assignment, the job index,
// in-flight coalescing by canonical scenario hash, retention pruning, and
// the drain flag. It is execution-agnostic — the same store backs a
// single-process daemon (LocalBackend) and a cluster coordinator
// (RemoteBackend), because a Job is just two append-only logs plus a state
// machine, however the lines are produced.
type JobStore struct {
	mu       sync.Mutex
	jobs     map[string]*Job
	order    []*Job
	byHash   map[string]*Job // latest executing job per canonical hash
	nextID   int
	retain   int
	draining bool
}

func newJobStore(retain int) *JobStore {
	return &JobStore{
		jobs:   map[string]*Job{},
		byHash: map[string]*Job{},
		retain: retain,
	}
}

// Admit registers a submission under the store lock, atomically with respect
// to coalescing and drain. An identical live job (same hash, not terminal) is
// returned with coalesced = true and nothing new is created. With hit set,
// the new job completes immediately from the cached result;
// otherwise start — the pipeline's submit — runs while the lock is held (so
// two racing identical submissions cannot both enqueue), and its error aborts
// the admission.
func (st *JobStore) Admit(sc scenario.Scenario, hash string, cached cacheEntry, hit bool, start func(*Job) error) (j *Job, coalesced bool, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.draining {
		return nil, false, ErrDraining
	}
	// In-flight coalescing: an identical scenario already queued or running
	// is the same computation — hand back that job (its stream delivers
	// exactly the records this submission would produce) instead of burning
	// a second executor on it. Terminal non-done jobs (canceled, failed)
	// don't count; a fresh submission retries those.
	if prev, ok := st.byHash[hash]; ok {
		if info := prev.Info(); !info.State.terminal() {
			return prev, true, nil
		}
	}
	st.nextID++
	j = newJob(fmt.Sprintf("j%06d", st.nextID), hash, sc)
	if hit {
		j.completeFromCache(cached)
	} else {
		if err := start(j); err != nil {
			st.nextID--
			return nil, false, err
		}
		st.byHash[hash] = j
	}
	st.jobs[j.ID] = j
	st.order = append(st.order, j)
	st.pruneLocked()
	return j, false, nil
}

// pruneLocked forgets the oldest terminal jobs once the retention bound is
// exceeded, so a long-running daemon's memory stays proportional to the
// bound, not to its lifetime submission count. Live jobs are never pruned;
// completed results survive in the result cache. Callers hold st.mu.
func (st *JobStore) pruneLocked() {
	excess := len(st.order) - st.retain
	if excess <= 0 {
		return
	}
	kept := st.order[:0]
	for _, j := range st.order {
		if excess > 0 && j.Info().State.terminal() {
			delete(st.jobs, j.ID)
			if st.byHash[j.Hash] == j {
				delete(st.byHash, j.Hash)
			}
			excess--
			continue
		}
		kept = append(kept, j)
	}
	clear(st.order[len(kept):])
	st.order = kept
}

// Get returns the job with the given id, if it is still retained.
func (st *JobStore) Get(id string) (*Job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	return j, ok
}

// List snapshots jobs in submission order. A non-empty state keeps only jobs
// currently in that state; limit > 0 keeps only the most recent that many
// (applied after the filter).
func (st *JobStore) List(state State, limit int) []JobInfo {
	st.mu.Lock()
	infos := make([]JobInfo, 0, len(st.order))
	for _, j := range st.order {
		info := j.Info()
		if state != "" && info.State != state {
			continue
		}
		infos = append(infos, info)
	}
	st.mu.Unlock()
	if limit > 0 && len(infos) > limit {
		infos = infos[len(infos)-limit:]
	}
	return infos
}

// CancelAll cancels every retained job (terminal jobs are unaffected). Drain
// uses it when the grace period expires.
func (st *JobStore) CancelAll() {
	st.mu.Lock()
	jobs := append([]*Job(nil), st.order...)
	st.mu.Unlock()
	for _, j := range jobs {
		j.Cancel()
	}
}

// SetDraining flips the store into drain mode: Admit refuses everything.
func (st *JobStore) SetDraining() {
	st.mu.Lock()
	st.draining = true
	st.mu.Unlock()
}

// Draining reports whether the store refuses submissions.
func (st *JobStore) Draining() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.draining
}
