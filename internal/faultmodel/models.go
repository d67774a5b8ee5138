package faultmodel

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"ncc/internal/graph"
	"ncc/internal/ncc"
	"ncc/internal/param"
)

// churnEventCap bounds the number of liveness transitions one churn spec may
// schedule, so a hostile (rate, horizon) pair cannot make Build allocate an
// unbounded event list.
const churnEventCap = 1 << 13

func init() {
	Models.Register(Model{
		Name:   "iid-drop",
		Desc:   "drop each transmitted message independently with probability p",
		Params: []param.Def{param.Float("p", 0.05, "per-message drop probability")},
		Compile: func(sp Spec, p param.Values, env Env, rng *rand.Rand) (*Schedule, error) {
			prob := p.Float("p")
			if prob < 0 || prob > 1 {
				return nil, fmt.Errorf("p = %v out of [0,1]", prob)
			}
			return &Schedule{drop: prob}, nil
		},
	})

	Models.Register(Model{
		Name: "link-cut",
		Desc: "drop every message into the to-set or out of the from-set, from a given round on",
		Params: []param.Def{
			param.Int("fromround", 0, "first round the cut is active"),
		},
		Links: true,
		Compile: func(sp Spec, p param.Values, env Env, rng *rand.Rand) (*Schedule, error) {
			start := p.Int("fromround")
			if start < 0 {
				return nil, fmt.Errorf("fromround = %d, need >= 0", start)
			}
			if len(sp.To) == 0 && len(sp.From) == 0 {
				return nil, fmt.Errorf("needs a non-empty to or from node set")
			}
			cut := ncc.LinkCut{To: nodeSet(sp.To, env.N), From: nodeSet(sp.From, env.N)}
			return &Schedule{cuts: []linkCut{{start: start, LinkCut: cut}}}, nil
		},
	})

	Models.Register(Model{
		Name: "crash",
		Desc: "fail-stop a seeded-random set of nodes at one round",
		Params: []param.Def{
			param.Int("count", 1, "number of nodes to kill"),
			param.Int("round", 8, "round the crash fires"),
		},
		Compile: func(sp Spec, p param.Values, env Env, rng *rand.Rand) (*Schedule, error) {
			victims, err := randomVictims(p.Int("count"), p.Int("round"), env, rng)
			if err != nil {
				return nil, err
			}
			return &Schedule{events: []Event{{Round: p.Int("round"), Down: kills(victims)}}}, nil
		},
	})

	Models.Register(Model{
		Name: "crash-recover",
		Desc: "take a seeded-random set of nodes out of service for a fixed window, then revive them",
		Params: []param.Def{
			param.Int("count", 1, "number of nodes to suspend"),
			param.Int("round", 8, "round the outage starts"),
			param.Int("downfor", 32, "rounds out of service"),
			param.Int("reset", 1, "1: revive with fresh volatile state (reseeded rng, cleared outbox)"),
		},
		Compile: func(sp Spec, p param.Values, env Env, rng *rand.Rand) (*Schedule, error) {
			downFor := p.Int("downfor")
			if downFor < 1 {
				return nil, fmt.Errorf("downfor = %d, must be >= 1", downFor)
			}
			victims, err := randomVictims(p.Int("count"), p.Int("round"), env, rng)
			if err != nil {
				return nil, err
			}
			down := make([]ncc.Outage, len(victims))
			up := make([]ncc.Revival, len(victims))
			for i, v := range victims {
				down[i] = ncc.Outage{Node: v}
				up[i] = ncc.Revival{Node: v, Reset: p.Int("reset") != 0}
			}
			return &Schedule{events: []Event{
				{Round: p.Int("round"), Down: down},
				{Round: p.Int("round") + downFor, Up: up},
			}}, nil
		},
	})

	Models.Register(Model{
		Name: "churn",
		Desc: "Poisson node churn: random outages arrive over a horizon, each reviving after an exponential stay",
		Params: []param.Def{
			param.Float("rate", 0.02, "expected outages per round"),
			param.Int("horizon", 1024, "rounds over which churn arrives"),
			param.Int("meandown", 64, "mean rounds a churned node stays out"),
		},
		Compile: func(sp Spec, p param.Values, env Env, rng *rand.Rand) (*Schedule, error) {
			rate := p.Float("rate")
			horizon := p.Int("horizon")
			meanDown := p.Int("meandown")
			if rate < 0 || rate > 8 {
				return nil, fmt.Errorf("rate = %v out of [0,8]", rate)
			}
			if horizon < 1 || meanDown < 1 {
				return nil, fmt.Errorf("horizon = %d and meandown = %d must be >= 1", horizon, meanDown)
			}
			s := &Schedule{}
			// downUntil[v] is the round v rejoins; a node already out is never
			// re-churned, so the schedule stays consistent with engine state.
			downUntil := map[int]int{}
			events := 0
			for r := 0; r < horizon && events < churnEventCap; r++ {
				for k := poisson(rng, rate); k > 0 && events < churnEventCap; k-- {
					v := rng.IntN(env.N)
					if until, out := downUntil[v]; out && r < until {
						continue
					}
					stay := 1 + int(rng.ExpFloat64()*float64(meanDown))
					downUntil[v] = r + stay
					s.events = append(s.events,
						Event{Round: r, Down: []ncc.Outage{{Node: v}}},
						Event{Round: r + stay, Up: []ncc.Revival{{Node: v, Reset: true}}})
					events += 2
				}
			}
			s.normalize()
			return s, nil
		},
	})

	Models.Register(Model{
		Name: "adversarial",
		Desc: "kill the structurally most critical nodes (articulation points, then top degree) at one round",
		Params: []param.Def{
			param.Int("count", 1, "number of nodes to kill"),
			param.Int("round", 8, "round the kill fires"),
			param.Int("cut", 1, "1: prefer articulation points; 0: pure top-degree"),
		},
		Compile: func(sp Spec, p param.Values, env Env, rng *rand.Rand) (*Schedule, error) {
			if env.G == nil {
				return nil, fmt.Errorf("needs the built input graph to pick victims")
			}
			count := p.Int("count")
			round := p.Int("round")
			if count < 0 || round < 0 {
				return nil, fmt.Errorf("count = %d and round = %d must be >= 0", count, round)
			}
			victims := adversarialVictims(env, count, p.Int("cut") != 0)
			return &Schedule{events: []Event{{Round: round, Down: kills(victims)}}}, nil
		},
	})
}

// randomVictims draws `count` distinct victims from [0, env.N) via a seeded
// permutation, sorted for a stable event encoding.
func randomVictims(count, round int, env Env, rng *rand.Rand) ([]int, error) {
	if count < 0 || round < 0 {
		return nil, fmt.Errorf("count = %d and round = %d must be >= 0", count, round)
	}
	count = min(count, env.N)
	victims := rng.Perm(env.N)[:count]
	sort.Ints(victims)
	return victims, nil
}

// nodeSet marks ids in a set over [0, n), or returns nil when ids is empty.
func nodeSet(ids []int, n int) []bool {
	if len(ids) == 0 {
		return nil
	}
	set := make([]bool, n)
	for _, v := range ids {
		set[v] = true
	}
	return set
}

func kills(victims []int) []ncc.Outage {
	out := make([]ncc.Outage, len(victims))
	for i, v := range victims {
		out[i] = ncc.Outage{Node: v, Kill: true}
	}
	return out
}

// adversarialVictims ranks nodes by structural damage: articulation points
// first (when preferCut), both groups ordered by descending degree with ids
// breaking ties — a deterministic worst-case adversary, no randomness.
func adversarialVictims(env Env, count int, preferCut bool) []int {
	g := env.G
	byDegree := func(a, b int) bool {
		da, db := g.Degree(a), g.Degree(b)
		if da != db {
			return da > db
		}
		return a < b
	}
	var order []int
	taken := make([]bool, env.N)
	if preferCut {
		cuts := graph.ArticulationPoints(g)
		sort.Slice(cuts, func(i, j int) bool { return byDegree(cuts[i], cuts[j]) })
		for _, u := range cuts {
			order = append(order, u)
			taken[u] = true
		}
	}
	rest := make([]int, 0, env.N)
	for u := 0; u < g.N() && u < env.N; u++ {
		if !taken[u] {
			rest = append(rest, u)
		}
	}
	sort.Slice(rest, func(i, j int) bool { return byDegree(rest[i], rest[j]) })
	order = append(order, rest...)
	count = min(count, len(order))
	victims := append([]int(nil), order[:count]...)
	sort.Ints(victims)
	return victims
}

// poisson draws a Poisson(rate) variate via Knuth's method (fine for the
// small rates churn uses).
func poisson(rng *rand.Rand, rate float64) int {
	if rate <= 0 {
		return 0
	}
	l := math.Exp(-rate)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
