// Package core implements the graph algorithms of the Node-Capacitated
// Clique paper on top of the communication primitives: the O(a)-orientation
// (Section 4) with its Identification Algorithm, broadcast trees (Section 5),
// BFS trees, maximal independent set, maximal matching, O(a)-coloring, and
// the O(log^4 n) minimum spanning tree (Section 3).
//
// Every algorithm is an SPMD collective: the per-node program calls it with
// the node's local view (its own adjacency) and receives the node's share of
// the output. Graph objects are shared read-only across node goroutines, but
// each node only ever reads its own adjacency list, matching the model's
// knowledge assumptions.
package core

import (
	"ncc/internal/comm"
	"ncc/internal/graph"
	"ncc/internal/hashing"
	"ncc/internal/ncc"
)

// node status during orientation.
const (
	stWaiting = iota
	stActive
	stInactive
)

// OrientParams tunes the orientation algorithm.
type OrientParams struct {
	// CHash is the constant c of Section 4.2: step 1 of stage 2 uses s = c
	// hash functions and q = 4ec*d**log n trials; step 2 uses s = c*log n and
	// q = 4ec*log^2 n. The paper's analysis wants c > 6.
	CHash int
}

func (p OrientParams) withDefaults() OrientParams {
	if p.CHash == 0 {
		p.CHash = 6
	}
	return p
}

// Orientation is one node's share of an O(a)-orientation (Theorem 4.12).
type Orientation struct {
	// Level is the phase at which this node became inactive; the level sets
	// L_1..L_T of Section 4 and the coloring order of Section 5.4.
	Level int
	// Out lists the out-neighbors: later-level neighbors plus same-level
	// neighbors with larger id. len(Out) = O(a).
	Out []int
	// Same lists same-level neighbors, Earlier the lower-level
	// (inactive-before-me) neighbors, Later the higher-level ones.
	Same    []int
	Earlier []int
	Later   []int
	// Levels is T, the total number of levels (same at every node).
	Levels int
	// DStar is the running maximum d* of per-phase active degrees, the O(a)
	// bound the algorithm certifies.
	DStar int
	// Rescues counts neighbors resolved by the direct-probe fallback rather
	// than the sketch (0 in virtually every run).
	Rescues int
}

// directBuf is one node's orientation scratch, kept across phases. It
// demultiplexes algorithm-level direct messages by tag so that a stage can
// consume its own messages without disturbing others', and holds the
// identification's storage and stage 3's two hash-family slots.
type directBuf struct {
	ident  identScratch
	fH, fR *hashing.Family

	uhighIDs  []int32
	announces []ncc.NodeID
	probes    []ncc.NodeID
	replies   []struct {
		from     ncc.NodeID
		inactive bool
	}
	edgeProbes []struct {
		from ncc.NodeID
		key  uint64
	}
	edgeBoths []uint64
}

func (b *directBuf) pump(s *comm.Session) {
	s.DrainDirect(func(from ncc.NodeID, ws []uint64) {
		switch ws[0] >> 56 {
		case dtagUHigh:
			b.uhighIDs = append(b.uhighIDs, int32(dbody(ws[0])))
		case dtagAnnounce:
			b.announces = append(b.announces, from)
		case dtagProbe:
			b.probes = append(b.probes, from)
		case dtagProbeReply:
			b.replies = append(b.replies, struct {
				from     ncc.NodeID
				inactive bool
			}{from, ws[0]&1 != 0})
		case dtagEdgeProbe:
			b.edgeProbes = append(b.edgeProbes, struct {
				from ncc.NodeID
				key  uint64
			}{from, ws[1]})
		case dtagEdgeBoth:
			b.edgeBoths = append(b.edgeBoths, ws[1])
		default:
			panic("core: unexpected direct message during orientation")
		}
	})
}

// sumCntMax is the stage-1 aggregate (sum of d_i, count of d_i > 0, count of
// non-inactive nodes). Its codec is defined here — the comm package's
// Wire[T] contract is open to algorithm-specific payloads.
type sumCntMax struct{ sum, cntPos, cntLive uint64 }

// scmWire is the three-word codec for sumCntMax.
type scmWire struct{}

func (scmWire) Words() int { return 3 }

func (scmWire) Encode(v sumCntMax, ws []uint64) { ws[0], ws[1], ws[2] = v.sum, v.cntPos, v.cntLive }

func (scmWire) Decode(ws []uint64) sumCntMax {
	return sumCntMax{sum: ws[0], cntPos: ws[1], cntLive: ws[2]}
}

var combineSCM = comm.Combiner[sumCntMax]{Wire: scmWire{}, Combine: func(a, b sumCntMax) sumCntMax {
	return sumCntMax{a.sum + b.sum, a.cntPos + b.cntPos, a.cntLive + b.cntLive}
}}

// Orient computes an O(a)-orientation of g (Theorem 4.12): every node learns
// a direction for each of its incident edges such that the maximum outdegree
// is at most 2*avg-degree of any phase, which is O(a). Runs in
// O((a + log n) log n) rounds w.h.p.
func Orient(s *comm.Session, g *graph.Graph, p OrientParams) *Orientation {
	p = p.withDefaults()
	ctx := s.Ctx
	me := ctx.ID()
	n := ctx.N()
	logn := max(1, ncc.CeilLog2(n))
	nbrs := g.Neighbors(me)
	d := len(nbrs)

	status := stWaiting
	var result *Orientation
	var playFor []int // once inactive: out-neighbors possibly not yet inactive
	dStar := 1
	buf := &directBuf{}
	levels := 0

	for phase := 1; ; phase++ {
		// ---- Stage 1: determine d_i(u) and the active set. ----
		var items []comm.Agg[uint64]
		if status == stInactive {
			for _, w := range playFor {
				items = append(items, comm.Agg[uint64]{Group: uint64(w), Target: w, Val: 1})
			}
		}
		res := comm.Aggregate(s, items, comm.Sum, 1)
		di := 0
		if status != stInactive {
			inact := 0
			for _, gv := range res {
				inact = int(gv.Val)
			}
			di = d - inact
		}

		var scm sumCntMax
		if status != stInactive {
			scm.cntLive = 1
			if di > 0 {
				scm.sum = uint64(di)
				scm.cntPos = 1
			}
		}
		tot, _ := comm.AggregateAndBroadcast(s, scm, true, combineSCM)
		if tot.cntLive == 0 {
			levels = phase - 1
			break
		}

		if status != stInactive && di == 0 {
			// All incident edges were oriented by earlier phases: this node
			// leaves without stage work (its neighbors are all inactive).
			status = stInactive
			earlier := make([]int, 0, d)
			for _, v := range nbrs {
				earlier = append(earlier, int(v))
			}
			result = &Orientation{Level: phase, Earlier: earlier}
			playFor = nil
		}

		active := false
		if status == stWaiting && tot.cntPos > 0 {
			avg := float64(tot.sum) / float64(tot.cntPos)
			active = float64(di) <= 2*avg
		}
		if active {
			status = stActive
		}

		dsiU, _ := s.MaxAll(uint64(di), active)
		dsi := max(int(dsiU), 1)
		if dsi > dStar {
			dStar = dsi
		}

		// ---- Stage 2 step 1: sketch-based identification. ----
		// The aggregation delivers to every node that players play for, not
		// just to learning nodes, so the delivery-window bound must cover the
		// worst-case in-player count of ANY node: its number of inactive
		// neighbors (exactly d-d_i while live, exactly |Earlier| once
		// inactive). The paper's coarser bound is lhat2 = q1 itself.
		q1 := max(16, 11*p.CHash*dStar*logn)
		blue := d - di
		if status == stInactive && result != nil {
			blue = len(result.Earlier)
		}
		maxBlueU, _ := s.MaxAll(uint64(blue), true)
		lhat21 := min(q1, p.CHash*int(maxBlueU)+1)

		var candidates []int
		if status == stActive {
			candidates = make([]int, 0, d)
			for _, v := range nbrs {
				candidates = append(candidates, int(v))
			}
		}
		r1 := runIdentification(s, &buf.ident, identifySpec{
			learning: status == stActive, candidates: candidates, redCount: di,
			playing: status == stInactive && result != nil && result.Level < phase, playFor: playFor,
			s: p.CHash, q: q1, lhat2: lhat21,
		})
		reds := map[int]bool{}
		for _, v := range r1.reds {
			reds[v] = true
		}
		solved := status == stActive && len(reds) == di

		// ---- Stage 2 step 2: high-degree broadcast + narrowed sketch. ----
		isHigh := status == stActive && !solved && (d-di) > n/logn
		isLow := status == stActive && !solved && !isHigh
		cntHighU, _ := comm.AggregateAndBroadcast(s, boolU64(isHigh), true, comm.Sum)
		cntHigh := int(cntHighU)
		rescues := 0
		if cntHigh > 0 {
			reds2 := stage2High(s, buf, me, cntHigh, dStar, logn, isHigh, status != stInactive, nbrs)
			if isHigh {
				for _, v := range reds2 {
					reds[v] = true
				}
				solved = len(reds) == di
			}
		}
		if s.AnyTrue(isLow) {
			var treeItems []comm.TreeItem
			if status == stInactive {
				for _, w := range playFor {
					treeItems = append(treeItems, comm.TreeItem{Group: uint64(w), Origin: me})
				}
			}
			trees := s.SetupTrees(treeItems)
			got := comm.Multicast(s, trees, isLow, uint64(me), comm.Flag{}, comm.ZeroWire{}, dStar)
			lowSet := map[int]bool{}
			for _, gv := range got {
				lowSet[int(gv.Group)] = true
			}
			var playFor2 []int
			for _, w := range playFor {
				if lowSet[w] {
					playFor2 = append(playFor2, w)
				}
			}
			var cand2 []int
			for _, v := range candidates {
				if !reds[v] {
					cand2 = append(cand2, v)
				}
			}
			s2 := p.CHash * logn
			q2 := max(64, 11*p.CHash*logn*logn)
			r2 := runIdentification(s, &buf.ident, identifySpec{
				learning: isLow, candidates: cand2, redCount: di - len(reds),
				playing: status == stInactive, playFor: playFor2,
				s: s2, q: q2, lhat2: min(q2, s2*int(maxBlueU)+1),
			})
			if isLow {
				for _, v := range r2.reds {
					reds[v] = true
				}
				solved = len(reds) == di
			}
		}

		// ---- Rescue fallback (robustness beyond the paper): directly probe any
		// still-unresolved neighbors. Triggers only on sketch failure. ----
		needRescue := status == stActive && !solved
		unk := 0
		if needRescue {
			unk = d - len(reds)
		}
		maxUnkU, _ := s.MaxAll(uint64(unk), true)
		if maxUnkU > 0 {
			got := stage2Rescue(s, buf, me, int(maxUnkU), logn, needRescue, status == stInactive, nbrs, reds)
			if needRescue {
				rescues = len(got)
				for _, v := range got {
					reds[v] = true
				}
				solved = len(reds) == di
				if !solved {
					panic("core: orientation rescue failed to resolve all neighbors")
				}
			}
		}

		// ---- Stage 3: split red edges into same-level and waiting. ----
		redList := make([]int, 0, len(reds))
		for _, v := range nbrs {
			if reds[int(v)] {
				redList = append(redList, int(v))
			}
		}
		same := stage3(s, buf, me, n, dsi, status == stActive, redList)

		if status == stActive {
			o := &Orientation{Level: phase, Same: same, Rescues: rescues}
			sameSet := map[int]bool{}
			for _, v := range same {
				sameSet[v] = true
			}
			for _, v := range redList {
				if !sameSet[v] {
					o.Later = append(o.Later, v)
					o.Out = append(o.Out, v)
				} else if v > me {
					o.Out = append(o.Out, v)
				}
			}
			for _, v := range nbrs {
				if !reds[int(v)] {
					o.Earlier = append(o.Earlier, int(v))
				}
			}
			playFor = append([]int(nil), o.Later...)
			result = o
			status = stInactive
		}
	}

	result.Levels = levels
	result.DStar = dStar
	return result
}

// stage2High lets unsuccessful high-degree nodes learn their red edges
// directly: their ids are funneled to node 0, pipelined to everyone, and
// every active-or-waiting node announces itself to its high-degree neighbors
// within a randomized window.
func stage2High(s *comm.Session, buf *directBuf, me, cntHigh, dStar, logn int, isHigh, liveSender bool, nbrs []int32) []int {
	ctx := s.Ctx
	// Funnel ids to node 0.
	w1 := (cntHigh+logn-1)/logn + 1
	sendAt := -1
	if isHigh && me != 0 {
		sendAt = ctx.Rand().IntN(w1)
	}
	var collected []uint64
	if isHigh && me == 0 {
		collected = append(collected, uint64(me))
	}
	for t := 0; t < w1; t++ {
		if t == sendAt {
			ctx.SendWord(0, ncc.Word(dhdr(dtagUHigh)|uint64(uint32(me))))
		}
		s.Advance()
		buf.pump(s)
		if me == 0 {
			for _, id := range buf.uhighIDs {
				collected = append(collected, uint64(id))
			}
			buf.uhighIDs = buf.uhighIDs[:0]
		}
	}
	ids := s.BroadcastWords(0, collected, cntHigh)

	// Announce to high-degree neighbors within the window.
	highSet := map[int]bool{}
	for _, id := range ids {
		highSet[int(id)] = true
	}
	w2 := max(cntHigh, dStar, 1)
	type job struct{ to, at int }
	var jobs []job
	if liveSender {
		for _, v := range nbrs {
			if highSet[int(v)] && int(v) != me {
				jobs = append(jobs, job{to: int(v), at: ctx.Rand().IntN(w2)})
			}
		}
	}
	var reds []int
	for t := 0; t < w2; t++ {
		for _, j := range jobs {
			if j.at == t {
				ctx.SendWord(j.to, ncc.Word(dhdr(dtagAnnounce)))
			}
		}
		s.Advance()
		buf.pump(s)
		if isHigh {
			reds = append(reds, buf.announces...)
		}
		buf.announces = buf.announces[:0]
	}
	buf.announces = buf.announces[:0]
	return reds
}

// stage2Rescue directly probes unresolved neighbors; probed nodes reply with
// their status. Not part of the paper (which accepts 1/poly(n) failure); it
// converts the w.h.p. guarantee into certainty at O(maxUnknown/log n) rounds
// on the rare failure path.
func stage2Rescue(s *comm.Session, buf *directBuf, me, maxUnk, logn int, needRescue, inactive bool, nbrs []int32, reds map[int]bool) []int {
	ctx := s.Ctx
	w := (maxUnk+logn-1)/logn + 1
	type job struct{ to, at int }
	var jobs []job
	if needRescue {
		for _, v := range nbrs {
			if !reds[int(v)] {
				jobs = append(jobs, job{to: int(v), at: ctx.Rand().IntN(w)})
			}
		}
	}
	var replyTo []ncc.NodeID
	var found []int
	for t := 0; t < w+2; t++ {
		for _, j := range jobs {
			if j.at == t {
				ctx.SendWord(j.to, ncc.Word(dhdr(dtagProbe)))
			}
		}
		for _, from := range replyTo {
			ctx.SendWord(from, ncc.Word(dhdr(dtagProbeReply)|boolU64(inactive)))
		}
		replyTo = replyTo[:0]
		s.Advance()
		buf.pump(s)
		replyTo = append(replyTo, buf.probes...)
		buf.probes = buf.probes[:0]
		for _, r := range buf.replies {
			if !r.inactive {
				found = append(found, r.from)
			}
		}
		buf.replies = buf.replies[:0]
	}
	return found
}

// stage3 resolves which red edges connect two active nodes: both endpoints
// hash the undirected edge key to a rendezvous node and a round; the
// rendezvous observes the collision and notifies both (Section 4.2, Stage 3).
func stage3(s *comm.Session, buf *directBuf, me, n, dsi int, active bool, redList []int) []int {
	ctx := s.Ctx
	fH := s.SharedFamily(&buf.fH, 0x73746167653361)
	fR := s.SharedFamily(&buf.fR, 0x73746167653362)
	w := max(dsi, 1)

	type job struct {
		to, at int
		key    uint64
	}
	var jobs []job
	if active {
		for _, v := range redList {
			key := hashing.PackUndirected(me, v)
			jobs = append(jobs, job{
				to:  int(fH.Range(key, uint64(n))),
				at:  int(fR.Range(key, uint64(w))),
				key: key,
			})
		}
	}

	rendezvous := map[uint64][]ncc.NodeID{}
	bothKeys := map[uint64]bool{}
	type resp struct {
		to  ncc.NodeID
		key uint64
	}
	var pending []resp

	observe := func(key uint64, from ncc.NodeID) {
		rendezvous[key] = append(rendezvous[key], from)
		if len(rendezvous[key]) == 2 {
			for _, peer := range rendezvous[key] {
				if peer == me {
					bothKeys[key] = true
				} else {
					pending = append(pending, resp{to: peer, key: key})
				}
			}
		}
	}

	for t := 0; t < w+2; t++ {
		for _, j := range jobs {
			if j.at != t {
				continue
			}
			if j.to == me {
				observe(j.key, me)
			} else {
				ctx.SendWords2(j.to, ncc.Words2{dhdr(dtagEdgeProbe), j.key})
			}
		}
		for _, r := range pending {
			ctx.SendWords2(r.to, ncc.Words2{dhdr(dtagEdgeBoth), r.key})
		}
		pending = pending[:0]
		s.Advance()
		buf.pump(s)
		for _, p := range buf.edgeProbes {
			observe(p.key, p.from)
		}
		buf.edgeProbes = buf.edgeProbes[:0]
		for _, k := range buf.edgeBoths {
			bothKeys[k] = true
		}
		buf.edgeBoths = buf.edgeBoths[:0]
	}

	var same []int
	for _, v := range redList {
		if bothKeys[hashing.PackUndirected(me, v)] {
			same = append(same, v)
		}
	}
	return same
}
