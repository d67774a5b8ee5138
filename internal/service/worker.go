package service

import (
	"context"
	"math/rand/v2"
	"net/url"
	"time"
)

// Joiner maintains a worker daemon's membership in a cluster: it registers
// with the coordinator immediately, re-registers every Interval (the same
// POST is the heartbeat), and deregisters on shutdown so the coordinator
// re-dispatches this worker's jobs without waiting out the TTL. A worker nccd
// runs a Joiner alongside its ordinary LocalBackend — cluster membership is
// purely additive; the worker's own HTTP API keeps serving direct clients.
type Joiner struct {
	Coordinator string        // coordinator base URL, e.g. http://coord:9876
	Self        string        // this worker's advertised base URL
	Name        string        // stable worker name; default: Self's host:port
	Capacity    int           // job slots to advertise (the worker's Executors)
	Interval    time.Duration // heartbeat period (default 2s; TTL is the coordinator's)
	Token       string        // shared cluster token, sent as a bearer credential
	Logf        func(format string, args ...any)
}

// Run registers, heartbeats until ctx is done, then deregisters best-effort.
func (jn *Joiner) Run(ctx context.Context) {
	interval := jn.Interval
	if interval <= 0 {
		interval = 2 * time.Second
	}
	name := jn.Name
	if name == "" {
		if u, err := url.Parse(jn.Self); err == nil && u.Host != "" {
			name = u.Host
		} else {
			name = jn.Self
		}
	}
	coord := NewClusterClient(jn.Coordinator, jn.Token)

	// The timer is re-armed at the top of every iteration (heartbeat period
	// on success, backoff on failure), so it starts parked far in the future:
	// Reset then never races a pending fire.
	t := time.NewTimer(24 * time.Hour)
	defer t.Stop()
	registered := false
	backoff := interval
	for {
		wait := interval
		rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		err := coord.RegisterWorker(rctx, name, jn.Self, jn.Capacity)
		cancel()
		if err != nil {
			if jn.Logf != nil {
				jn.Logf("join %s: %v", coord.base, err)
			}
			registered = false
			// Capped exponential backoff with jitter: an unreachable
			// coordinator is retried ever more slowly (up to 8 heartbeat
			// periods), and the jitter keeps a fleet of workers that lost the
			// coordinator together from re-registering in lockstep.
			backoff = min(backoff*2, 8*interval)
			wait = backoff/2 + rand.N(backoff/2+1)
		} else {
			if !registered && jn.Logf != nil {
				jn.Logf("registered with coordinator %s as %s (capacity %d)", coord.base, name, jn.Capacity)
			}
			registered = true
			backoff = interval
		}
		t.Reset(wait)
		select {
		case <-ctx.Done():
			// Best-effort, on a fresh context: ctx is already done.
			dctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			coord.DeregisterWorker(dctx, name)
			cancel()
			return
		case <-t.C:
		}
	}
}
