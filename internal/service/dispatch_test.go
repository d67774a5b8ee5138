package service

import (
	"context"
	"testing"
	"time"

	"ncc/internal/scenario"
)

// TestDispatchTimeCacheHit exercises the dispatcher's second cache check, in
// both modes: a result that lands in the cache after a job was admitted (so
// the admission-time lookup missed) is served when the dispatcher takes the
// job, without a slot. The coordinator has no worker registered, so dispatch
// is the only path to completion; the local daemon would execute the job and
// stream its real record instead of the stub.
func TestDispatchTimeCacheHit(t *testing.T) {
	for _, tc := range []struct {
		name string
		new  func(Config) (*Server, error)
	}{{"New", New}, {"NewCoordinator", NewCoordinator}} {
		t.Run(tc.name, func(t *testing.T) {
			svc, err := tc.new(Config{WorkerTTL: time.Minute})
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
				defer cancel()
				svc.Drain(ctx)
			}()

			sc, err := scenario.Decode([]byte(`{"algo":"mis","graph":{"family":"kforest","params":{"n":12,"k":2},"seed":7},"model":{"seed":7}}`))
			if err != nil {
				t.Fatal(err)
			}
			hash, err := sc.Hash()
			if err != nil {
				t.Fatal(err)
			}
			lines := [][]byte{[]byte(`{"stub":"record"}`)}
			if err := svc.cache.put(hash, cacheEntry{lines: lines}); err != nil {
				t.Fatal(err)
			}

			// hit=false models the race: the admission lookup ran before the
			// result landed. The dispatcher must still find it.
			j, coalesced, err := svc.store.Admit(sc, hash, cacheEntry{}, false, svc.jobs.submit)
			if err != nil || coalesced {
				t.Fatalf("admit: coalesced=%v err=%v", coalesced, err)
			}
			deadline := time.After(10 * time.Second)
			for {
				_, _, terminal, changed := j.next(recordLog, 0)
				if terminal {
					break
				}
				select {
				case <-changed:
				case <-deadline:
					t.Fatal("job never completed from the dispatch-time cache check")
				}
			}
			info := j.Info()
			if info.State != StateDone || !info.Cached || info.Records != 1 {
				t.Fatalf("job after dispatch-time hit: %+v", info)
			}
			if n := svc.m.dispatchCacheHits.Load(); n != 1 {
				t.Fatalf("dispatchCacheHits = %d, want 1", n)
			}
			if n := svc.m.jobsDone.Load(); n != 1 {
				t.Fatalf("jobsDone = %d, want 1", n)
			}
		})
	}
}

// TestCompleteFromCacheGuardsTerminal pins the terminal guard: a cached result
// must not resurrect a job canceled while it waited in the queue.
func TestCompleteFromCacheGuardsTerminal(t *testing.T) {
	j := newJob("j1", "h", scenario.Scenario{})
	j.Cancel()
	if j.completeFromCache(cacheEntry{lines: [][]byte{[]byte(`{"stub":true}`)}}) {
		t.Fatal("completeFromCache resurrected a canceled job")
	}
	if info := j.Info(); info.State != StateCanceled || info.Records != 0 {
		t.Fatalf("canceled job after cache attempt: %+v", info)
	}
}
