// Package kmachine implements the k-machine model simulation of Appendix A:
// the n clique nodes are partitioned uniformly at random over k machines;
// every NCC round is executed by routing each clique message over the
// machine-level complete network, where each ordered machine pair's link
// carries a bounded number of words per k-machine round (store-and-forward,
// direct routing). Corollary 2 predicts that a T-round NCC algorithm costs
// about n*T/k^2 k-machine rounds (up to polylog factors). The accounting
// rides the engine's round probe: it reads each round's accepted traffic
// from the ncc.ShardTiming.Sent views, without copying it.
package kmachine

import (
	"fmt"
	"math/rand/v2"

	"ncc/internal/ncc"
)

// Result summarizes a k-machine simulation.
type Result struct {
	// K is the number of machines, BandwidthWords the per-link words per
	// k-machine round.
	K              int
	BandwidthWords int
	// NCCRounds is the simulated algorithm's round count; KRounds the number
	// of k-machine rounds needed to route all of its traffic.
	NCCRounds int
	KRounds   int64
	// CrossMessages counts clique messages between machines; IntraMessages
	// those between co-located nodes (free).
	CrossMessages int64
	IntraMessages int64
	// MaxMachineNodes is the largest machine population under the random
	// vertex partition (about n/k + deviations).
	MaxMachineNodes int
	// MaxLinkWords is the largest single-round load on one directed link.
	MaxLinkWords int
}

// String renders the headline numbers.
func (r Result) String() string {
	return fmt.Sprintf("k=%d nccRounds=%d kRounds=%d cross=%d intra=%d",
		r.K, r.NCCRounds, r.KRounds, r.CrossMessages, r.IntraMessages)
}

// Accountant accounts a run's communication in the k-machine model without
// owning the run itself: attach its Probe to any engine execution
// (kmachine.Simulate, or a scenario run via the scenario package's kmachine
// block) and read the accumulated Result afterwards. The random vertex
// partition is fixed at construction from the seed, so the same (k, n, seed)
// triple always produces the same machine assignment.
type Accountant struct {
	machineOf []int
	bw        int
	res       Result
	// loads[p*k+q] is the round's word load on the link from machine p to
	// machine q; touched lists the non-zero entries, so a round costs
	// O(messages), not O(k^2).
	loads   []int
	touched []int
}

// MaxMachines bounds k: the accountant keeps a dense k x k link-load table
// (8 MiB at the bound).
const MaxMachines = 1024

// NewAccountant builds the k-machine accountant for an n-node clique
// with the given per-link bandwidth (words per k-machine round). The vertex
// partition derives deterministically from seed.
func NewAccountant(k, bandwidthWords, n int, seed int64) (*Accountant, error) {
	if k < 1 || k > MaxMachines {
		return nil, fmt.Errorf("kmachine: k = %d, need 1 <= k <= %d", k, MaxMachines)
	}
	if bandwidthWords < 1 {
		return nil, fmt.Errorf("kmachine: bandwidth = %d words, need >= 1", bandwidthWords)
	}
	a := &Accountant{
		bw:    bandwidthWords,
		res:   Result{K: k, BandwidthWords: bandwidthWords},
		loads: make([]int, k*k),
	}
	rng := rand.New(rand.NewPCG(uint64(seed), 0x6b6d616368696e65))
	a.machineOf = make([]int, n)
	counts := make([]int, k)
	for i := range a.machineOf {
		a.machineOf[i] = rng.IntN(k)
		counts[a.machineOf[i]]++
	}
	for _, c := range counts {
		if c > a.res.MaxMachineNodes {
			a.res.MaxMachineNodes = c
		}
	}
	return a, nil
}

// Probe is an ncc.RoundProbe: it routes the round's clique messages (the
// shards' Sent views) over the machine-level complete network and charges
// the k-machine rounds. Every tally is a sum or a maximum, so the Result
// does not depend on how the engine's workers split the traffic.
func (a *Accountant) Probe(_ ncc.RoundSample, shards []ncc.ShardTiming) {
	// Direct store-and-forward routing: the round's cost is the most loaded
	// link's transfer time (at least one k-machine round per NCC round, for
	// the synchronous barrier).
	worst := 0
	for i := range shards {
		for _, msgs := range shards[i].Sent {
			for k := range msgs {
				e := &msgs[k]
				p, q := a.machineOf[e.From], a.machineOf[e.To]
				if p == q {
					a.res.IntraMessages++
					continue
				}
				a.res.CrossMessages++
				l := p*a.res.K + q
				if a.loads[l] == 0 {
					a.touched = append(a.touched, l)
				}
				a.loads[l] += e.Words()
			}
		}
	}
	for _, l := range a.touched {
		worst = max(worst, a.loads[l])
		a.loads[l] = 0
	}
	a.touched = a.touched[:0]
	a.res.MaxLinkWords = max(a.res.MaxLinkWords, worst)
	a.res.KRounds += int64(max(1, (worst+a.bw-1)/a.bw))
	a.res.NCCRounds++
}

// Result returns the accumulated accounting. The probe runs once per
// completed round, so NCCRounds equals the run's Stats.Rounds.
func (a *Accountant) Result() Result { return a.res }

// Simulate runs program on an NCC clique configured by cfg while accounting
// its communication in the k-machine model with the given per-link bandwidth
// (in words per round). The random vertex partition is derived from
// cfg.Seed. The accountant's Probe replaces any probe already in cfg.
func Simulate(k, bandwidthWords int, cfg ncc.Config, program func(*ncc.Context)) (Result, ncc.Stats, error) {
	a, err := NewAccountant(k, bandwidthWords, cfg.N, cfg.Seed)
	if err != nil {
		return Result{}, ncc.Stats{}, err
	}
	cfg.Probe = a.Probe
	st, err := ncc.Run(cfg, program)
	return a.Result(), st, err
}
