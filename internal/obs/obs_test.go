package obs

import (
	"bytes"
	"strings"
	"testing"

	"ncc/internal/ncc"
)

// synthRun feeds c a deterministic little run: r rounds of geometric decay
// from a fixed starting volume, then a quiet tail.
func synthRun(c *Collector, h Header, rounds int, timing []ncc.ShardTiming) ncc.Stats {
	probe := c.Probe()
	var st ncc.Stats
	for i := 0; i < rounds; i++ {
		msgs := 1024 >> i
		s := ncc.RoundSample{
			Round: i, Messages: msgs, Delivered: msgs, Words: msgs,
			Active: min(h.N, msgs), MaxSendLoad: max(1, msgs/h.N),
			MaxRecvOffered: max(1, msgs/h.N), MaxRecvDelivered: max(1, msgs/h.N),
		}
		probe(s, timing)
		st.Messages += int64(msgs)
		st.Words += int64(msgs)
		st.Rounds++
	}
	c.FinishRun(h, st, false)
	return st
}

var testHeader = Header{Scenario: "sha256:abc", Algo: "broadcast", Graph: "ring", N: 64, Seed: 7, Cap: 48}

func TestCollectorRoundTrip(t *testing.T) {
	c := &Collector{}
	st := synthRun(c, testHeader, 11, nil)
	data := c.Bytes()
	tr, err := Parse(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("parse: %v\ntrace:\n%s", err, data)
	}
	if len(tr.Runs) != 1 {
		t.Fatalf("got %d runs", len(tr.Runs))
	}
	run := tr.Runs[0]
	if run.Header != testHeader {
		t.Errorf("header round-trip: %+v != %+v", run.Header, testHeader)
	}
	if len(run.Rounds) != 11 || run.End.Rounds != st.Rounds || run.End.Msgs != st.Messages {
		t.Errorf("end = %+v over %d rounds, want %d rounds %d msgs", run.End, len(run.Rounds), st.Rounds, st.Messages)
	}
	if run.Rounds[0].Messages != 1024 || run.Rounds[10].Messages != 1 {
		t.Errorf("sample decay lost: first=%d last=%d", run.Rounds[0].Messages, run.Rounds[10].Messages)
	}
}

func TestHashIgnoresTimingLines(t *testing.T) {
	timing := []ncc.ShardTiming{{BarrierWaitNanos: 10, SendNanos: 20, RecvNanos: 30, ComputeNanos: 40}, {SendNanos: 5, RecvNanos: 5}}
	plain := &Collector{}
	synthRun(plain, testHeader, 5, nil)
	timed := &Collector{WithTiming: true}
	synthRun(timed, testHeader, 5, timing)

	if bytes.Equal(plain.Bytes(), timed.Bytes()) {
		t.Fatal("timing lines missing from timed trace")
	}
	if plain.Hash() != timed.Hash() {
		t.Errorf("canonical hash differs with timing: %s vs %s", plain.Hash(), timed.Hash())
	}
	tr, err := Parse(bytes.NewReader(timed.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !tr.HasTiming() || len(tr.Runs[0].Timing) != 5 {
		t.Errorf("timed trace parsed %d timing lines, want 5", len(tr.Runs[0].Timing))
	}
	if got := tr.Runs[0].Timing[0].Shards[0]; got != [4]int64{10, 20, 30, 40} {
		t.Errorf("timing entry = %v", got)
	}
}

// TestParseAcceptsThreeElementTiming pins that timing lines written before
// the compute span existed still parse, with compute 0.
func TestParseAcceptsThreeElementTiming(t *testing.T) {
	data := `{"t":"h","v":1,"run":0,"n":4,"seed":1,"cap":16}` + "\n" +
		`{"t":"r","round":0,"msgs":1,"delivered":1,"words":1,"active":1,"maxSend":1,"maxRecv":1,"maxRecvDelivered":1}` + "\n" +
		`{"t":"g","round":0,"shards":[[10,20,30]]}` + "\n" +
		`{"t":"e","run":0,"rounds":1,"msgs":1,"words":1}` + "\n"
	tr, err := Parse(strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Runs[0].Timing[0].Shards[0]; got != [4]int64{10, 20, 30, 0} {
		t.Errorf("three-element timing parsed as %v", got)
	}
	var buf bytes.Buffer
	WriteSummary(&buf, tr)
	if want := "shard time: barrier wait 16.7%, delivery 83.3% (no compute span recorded)"; !strings.Contains(buf.String(), want) {
		t.Errorf("summary missing %q:\n%s", want, buf.String())
	}
}

func TestCollectorTakeLinesStreams(t *testing.T) {
	c := &Collector{}
	synthRun(c, testHeader, 3, nil)
	first := c.TakeLines()
	if len(first) != 5 { // h + 3r + e
		t.Fatalf("first run drained %d lines, want 5", len(first))
	}
	synthRun(c, testHeader, 2, nil)
	second := c.TakeLines()
	if len(second) != 4 {
		t.Fatalf("second run drained %d lines, want 4", len(second))
	}
	all := append(append([][]byte{}, first...), second...)
	if _, err := Parse(bytes.NewReader(Join(all))); err != nil {
		t.Fatalf("streamed lines do not reassemble: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Bytes after TakeLines should panic")
		}
	}()
	c.Bytes()
}

func TestParseRejectsMalformed(t *testing.T) {
	good := func() *Collector { c := &Collector{}; synthRun(c, testHeader, 3, nil); return c }
	cases := map[string]string{
		"empty":          "",
		"unknown type":   `{"t":"x"}` + "\n",
		"round outside":  `{"t":"r","round":0,"msgs":1,"delivered":1}` + "\n",
		"bad version":    `{"t":"h","v":9,"run":0,"n":4,"seed":1,"cap":16}` + "\n" + `{"t":"e","run":0}` + "\n",
		"missing end":    string(good().Bytes()[:len(good().Bytes())-len(`{"t":"e","run":0,"rounds":3,"msgs":1792,"words":1792}`)-1]),
		"negative field": `{"t":"h","v":1,"run":0,"n":4,"seed":1,"cap":16}` + "\n" + `{"t":"r","round":0,"msgs":-1,"delivered":-1}` + "\n",
		"bad delivered":  `{"t":"h","v":1,"run":0,"n":4,"seed":1,"cap":16}` + "\n" + `{"t":"r","round":0,"msgs":5,"delivered":3}` + "\n",
		"round gap":      `{"t":"h","v":1,"run":0,"n":4,"seed":1,"cap":16}` + "\n" + `{"t":"r","round":0,"msgs":1,"delivered":1}` + "\n" + `{"t":"r","round":2,"msgs":1,"delivered":1}` + "\n",
		"end mismatch":   `{"t":"h","v":1,"run":0,"n":4,"seed":1,"cap":16}` + "\n" + `{"t":"r","round":0,"msgs":1,"delivered":1}` + "\n" + `{"t":"e","run":0,"rounds":1,"msgs":99,"words":0}` + "\n",
	}
	for name, data := range cases {
		if err := Validate([]byte(data)); err == nil {
			t.Errorf("%s: validated, want error", name)
		}
	}
	if err := Validate(good().Bytes()); err != nil {
		t.Errorf("well-formed trace rejected: %v", err)
	}
}

func TestParseAcceptsRoundReset(t *testing.T) {
	c := &Collector{}
	probe := c.Probe()
	// Two engine runs inside one scenario segment: rounds 0,1 then 0.
	for _, r := range []int{0, 1, 0} {
		probe(ncc.RoundSample{Round: r, Messages: 2, Delivered: 2, Words: 2, Active: 2, MaxSendLoad: 1, MaxRecvOffered: 1, MaxRecvDelivered: 1}, nil)
	}
	// End stats deliberately cover only the second engine run; the reset
	// makes the parser skip the sum check.
	c.FinishRun(testHeader, ncc.Stats{Rounds: 1, Messages: 2, Words: 2}, false)
	tr, err := Parse(bytes.NewReader(c.Bytes()))
	if err != nil {
		t.Fatalf("reset trace rejected: %v", err)
	}
	if len(tr.Runs[0].Rounds) != 3 {
		t.Errorf("got %d rounds", len(tr.Runs[0].Rounds))
	}
}

const wantSummary = `run 0: algo=broadcast graph=ring n=64 seed=7 cap=48
  scenario sha256:abc
  11 rounds, 2047 msgs, 2047 words [ok]
  phases:
     1  rounds 0-0 (1)  load~2^10  1024.0 msgs/round, peak recv 16
     2  rounds 1-1 (1)  load~2^9  512.0 msgs/round, peak recv 8
     3  rounds 2-2 (1)  load~2^8  256.0 msgs/round, peak recv 4
     4  rounds 3-3 (1)  load~2^7  128.0 msgs/round, peak recv 2
     5  rounds 4-4 (1)  load~2^6  64.0 msgs/round, peak recv 1
     6  rounds 5-5 (1)  load~2^5  32.0 msgs/round, peak recv 1
     7  rounds 6-6 (1)  load~2^4  16.0 msgs/round, peak recv 1
     8  rounds 7-7 (1)  load~2^3  8.0 msgs/round, peak recv 1
     9  rounds 8-8 (1)  load~2^2  4.0 msgs/round, peak recv 1
    10  rounds 9-9 (1)  load~2^1  2.0 msgs/round, peak recv 1
    11  rounds 10-10 (1)  load~2^0  1.0 msgs/round, peak recv 1
  rate: █▅▃▂▁▁▁▁▁▁▁ (peak 1024 msgs/round)
  shard timing: not recorded (trace with -trace-timing to capture)
`

func TestSummaryGolden(t *testing.T) {
	c := &Collector{}
	synthRun(c, testHeader, 11, nil)
	tr, err := Parse(bytes.NewReader(c.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	WriteSummary(&buf, tr)
	if buf.String() != wantSummary {
		t.Errorf("summary drifted:\n--- got ---\n%s--- want ---\n%s", buf.String(), wantSummary)
	}
}

func TestSummaryImbalance(t *testing.T) {
	timing := []ncc.ShardTiming{
		{BarrierWaitNanos: 0, SendNanos: 100, RecvNanos: 100, ComputeNanos: 700},
		{BarrierWaitNanos: 50, SendNanos: 300, RecvNanos: 300, ComputeNanos: 450},
	}
	c := &Collector{WithTiming: true}
	synthRun(c, testHeader, 4, timing)
	tr, err := Parse(bytes.NewReader(c.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	WriteSummary(&buf, tr)
	// peak = 600, mean = 400 -> imbalance 1.50 every round.
	// Per round: compute 1150, wait 50, delivery 800 of 2000 ns.
	for _, want := range []string{
		"shard imbalance (slowest/mean): p50 1.50, p90 1.50, max 1.50 over 4 timed rounds",
		"shard time: compute 57.5%, barrier wait 2.5%, delivery 40.0%",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, buf.String())
		}
	}
}

func TestDiffIdenticalAndDiverging(t *testing.T) {
	a := &Collector{}
	synthRun(a, testHeader, 6, nil)
	trA, err := Parse(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if !WriteDiff(&buf, "a", "a2", trA, trA) {
		t.Errorf("identical traces reported different:\n%s", buf.String())
	}
	if want := "traces identical: 1 runs, 6 rounds\n"; buf.String() != want {
		t.Errorf("identical diff output %q, want %q", buf.String(), want)
	}

	// Perturb rounds 2 and 3 of a copy.
	b := &Collector{}
	probe := b.Probe()
	var st ncc.Stats
	for i := 0; i < 6; i++ {
		msgs := 1024 >> i
		if i == 2 || i == 3 {
			msgs += 10
		}
		probe(ncc.RoundSample{Round: i, Messages: msgs, Delivered: msgs, Words: msgs,
			Active: min(64, msgs), MaxSendLoad: max(1, msgs/64),
			MaxRecvOffered: max(1, msgs/64), MaxRecvDelivered: max(1, msgs/64)}, nil)
		st.Messages += int64(msgs)
		st.Words += int64(msgs)
		st.Rounds++
	}
	b.FinishRun(testHeader, st, false)
	trB, err := Parse(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if WriteDiff(&buf, "a", "b", trA, trB) {
		t.Fatal("diverging traces reported identical")
	}
	out := buf.String()
	for _, want := range []string{"first divergence at round 2", "rounds 2-3 (+20 msgs)", "msgs 2016 vs 2036 (+20)"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}
}

func TestWritePhasesPprofLabels(t *testing.T) {
	c := &Collector{}
	synthRun(c, testHeader, 3, nil)
	tr, err := Parse(bytes.NewReader(c.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	WritePhases(&buf, tr, true)
	out := buf.String()
	for _, want := range []string{"-tagfocus run=", "run=0 scenario=sha256:abc algo=broadcast", "phase=1 rounds=0-0 label=load~2^10 msgs=1024"} {
		if !strings.Contains(out, want) {
			t.Errorf("phase export missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	WritePhases(&buf, tr, false)
	if want := "0\t1\t0\t0\tload~2^10\t1024\n"; !strings.HasPrefix(buf.String(), want) {
		t.Errorf("tsv export starts %q, want %q", buf.String(), want)
	}
}
