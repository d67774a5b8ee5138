package obs

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"ncc/internal/ncc"
)

// oracleRound is the reflective encoding appendRound must reproduce.
func oracleRound(s ncc.RoundSample) roundLine {
	return roundLine{
		T: "r", Round: s.Round,
		Msgs: s.Messages, Delivered: s.Delivered, Words: s.Words,
		Active: s.Active, Finished: s.Finished, Down: s.Down,
		MaxSend: s.MaxSendLoad, MaxRecv: s.MaxRecvOffered, MaxRecvDelivered: s.MaxRecvDelivered,
		RecvThrottled: s.RecvThrottled, DroppedFault: s.DroppedFault,
		DroppedDead: s.DroppedDead, DroppedToFinished: s.DroppedToFinished,
	}
}

// validSample mirrors the checks Parse applies to a trace whose only round
// is s: the first round is 0, nothing is negative, and the per-line
// arithmetic holds.
func validSample(s ncc.RoundSample) bool {
	for _, v := range []int{s.Round, s.Messages, s.Delivered, s.Words, s.Active, s.Finished, s.Down,
		s.MaxSendLoad, s.MaxRecvOffered, s.MaxRecvDelivered,
		s.RecvThrottled, s.DroppedFault, s.DroppedDead, s.DroppedToFinished} {
		if v < 0 {
			return false
		}
	}
	return s.Round == 0 && s.Delivered == s.Messages-s.RecvThrottled && s.MaxRecvDelivered <= s.MaxRecvOffered
}

// FuzzTraceRound holds the hand-written round encoder to json.Marshal of the
// wire struct, byte for byte, and checks that Parse reads every valid line
// back as the sample that produced it and rejects every invalid one.
func FuzzTraceRound(f *testing.F) {
	f.Add(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	f.Add(0, 128, 120, 300, 64, 3, 2, 7, 9, 8, 8, 4, 5, 6)
	f.Add(17, -1, -5, 0, -64, 0, -2, 0, 1, 2, -3, 0, 0, -9)
	f.Add(0, math.MaxInt, math.MaxInt, math.MaxInt, math.MaxInt, math.MaxInt, math.MaxInt,
		math.MaxInt, math.MaxInt, math.MaxInt, 0, math.MaxInt, math.MaxInt, math.MaxInt)
	f.Add(math.MinInt, math.MinInt, 0, math.MinInt, 1, math.MinInt, 0, 1, math.MinInt, 0, math.MinInt, 0, math.MinInt, 0)
	f.Fuzz(func(t *testing.T, round, msgs, delivered, words, active, finished, down,
		maxSend, maxRecv, maxRecvDelivered, recvThrottled,
		droppedFault, droppedDead, droppedToFinished int) {
		s := ncc.RoundSample{
			Round: round, Messages: msgs, Delivered: delivered, Words: words,
			Active: active, Finished: finished, Down: down,
			MaxSendLoad: maxSend, MaxRecvOffered: maxRecv, MaxRecvDelivered: maxRecvDelivered,
			RecvThrottled: recvThrottled, DroppedFault: droppedFault,
			DroppedDead: droppedDead, DroppedToFinished: droppedToFinished,
		}
		got := appendRound(nil, s)
		want := append(mustMarshal(oracleRound(s)), '\n')
		if !bytes.Equal(got, want) {
			t.Fatalf("appendRound = %s, json.Marshal = %s", got, want)
		}

		c := &Collector{}
		c.Probe()(s, nil)
		c.FinishRun(testHeader, ncc.Stats{Rounds: 1, Messages: int64(s.Messages), Words: int64(s.Words)}, false)
		tr, err := Parse(bytes.NewReader(c.Bytes()))
		if !validSample(s) {
			if err == nil {
				t.Fatalf("Parse accepted invalid round %s", got)
			}
			return
		}
		if err != nil {
			t.Fatalf("Parse rejected %s: %v", got, err)
		}
		if r := tr.Runs[0].Rounds; len(r) != 1 || r[0] != s {
			t.Fatalf("Parse returned %+v, want [%+v]", r, s)
		}
	})
}

// benchSample is a synthetic round with multi-digit fields and every
// optional counter set now and then, so lines have a realistic length.
func benchSample(i int) ncc.RoundSample {
	msgs := 1000 + (i*7919)%50000
	s := ncc.RoundSample{
		Round: i, Messages: msgs, Words: 2 * msgs, Active: 64 + i%2048,
		MaxSendLoad: 1 + i%37, MaxRecvOffered: 2 + i%41, MaxRecvDelivered: 1 + i%41,
	}
	if i%5 == 0 {
		s.Finished = i % 300
		s.RecvThrottled = i % 13
	}
	if i%11 == 0 {
		s.DroppedFault = i % 17
	}
	s.Delivered = s.Messages - s.RecvThrottled
	return s
}

// TestProbeSteadyStateAllocs pins that, once its scratch buffer has grown to
// a run's size, the probe encodes a round without allocating.
func TestProbeSteadyStateAllocs(t *testing.T) {
	c := &Collector{}
	probe := c.Probe()
	for i := 0; i < 2000; i++ {
		probe(benchSample(i), nil)
	}
	// The next run starts on the grown buffer, as a pooled one does.
	*c.scratch = (*c.scratch)[:0]
	round := 0
	allocs := testing.AllocsPerRun(1000, func() {
		probe(benchSample(round), nil)
		round++
	})
	if allocs != 0 {
		t.Errorf("probe allocates %.1f times per round after warm-up, want 0", allocs)
	}
}

// BenchmarkCollector traces a 2,000-round synthetic run per iteration — a
// fresh Collector, every round through the probe, the segment sealed and
// taken, as one daemon job does — and reports the cost per round.
func BenchmarkCollector(b *testing.B) {
	const rounds = 2000
	samples := make([]ncc.RoundSample, rounds)
	var st ncc.Stats
	for i := range samples {
		samples[i] = benchSample(i)
		st.Messages += int64(samples[i].Messages)
		st.Words += int64(samples[i].Words)
	}
	st.Rounds = rounds
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		c := &Collector{}
		probe := c.Probe()
		for _, s := range samples {
			probe(s, nil)
		}
		c.FinishRun(testHeader, st, false)
		benchLines = c.TakeLines()
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	perRound := float64(b.N * rounds)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perRound, "ns/round")
	b.ReportMetric(float64(ms1.TotalAlloc-ms0.TotalAlloc)/perRound, "B/round")
}

var benchLines [][]byte
