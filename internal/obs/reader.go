package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"ncc/internal/ncc"
)

// RunTrace is one parsed engine-run segment: header, per-round samples, any
// interleaved timing lines, and the end summary.
type RunTrace struct {
	Header Header
	Rounds []ncc.RoundSample
	Timing []RoundTiming
	End    End
}

// Trace is a fully parsed and structurally validated trace.
type Trace struct {
	Runs []RunTrace
}

// Rounds returns the total number of round samples across all runs.
func (t *Trace) Rounds() int {
	n := 0
	for i := range t.Runs {
		n += len(t.Runs[i].Rounds)
	}
	return n
}

// HasTiming reports whether any run carries shard-timing lines.
func (t *Trace) HasTiming() bool {
	for i := range t.Runs {
		if len(t.Runs[i].Timing) > 0 {
			return true
		}
	}
	return false
}

// maxLine bounds a single trace line; a line is a bounded set of integer
// fields, so anything near this is corrupt input, not a big trace.
const maxLine = 1 << 20

// Parse reads an NDJSON trace and validates its structure: every line has a
// known type, segments are header → rounds → end with ascending run indices,
// round indices within a segment are contiguous (resetting to 0 when a
// scenario executes more than one engine run), per-line arithmetic holds
// (delivered = msgs - recvThrottled, nothing negative), and — for clean
// single-engine-run segments — the end summary matches the round sums.
func Parse(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxLine)
	t := &Trace{}
	var cur *RunTrace
	var sawReset bool
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var probe struct {
			T string `json:"t"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return nil, fmt.Errorf("obs: line %d: not a JSON object: %v", lineNo, err)
		}
		switch probe.T {
		case "h":
			var h headerLine
			if err := json.Unmarshal(line, &h); err != nil {
				return nil, fmt.Errorf("obs: line %d: bad header: %v", lineNo, err)
			}
			if h.V != Version {
				return nil, fmt.Errorf("obs: line %d: trace version %d, this build reads %d", lineNo, h.V, Version)
			}
			if cur != nil {
				return nil, fmt.Errorf("obs: line %d: header inside unterminated run %d", lineNo, h.Run)
			}
			if h.Run != len(t.Runs) {
				return nil, fmt.Errorf("obs: line %d: run index %d, want %d", lineNo, h.Run, len(t.Runs))
			}
			if h.N < 1 || h.Cap < 1 {
				return nil, fmt.Errorf("obs: line %d: header n=%d cap=%d out of range", lineNo, h.N, h.Cap)
			}
			cur = &RunTrace{Header: Header{
				Scenario: h.Scenario, Algo: h.Algo, Graph: h.Graph,
				N: h.N, Seed: h.Seed, Cap: h.Cap,
			}}
			sawReset = false
		case "r":
			if cur == nil {
				return nil, fmt.Errorf("obs: line %d: round line outside a run", lineNo)
			}
			var rl roundLine
			if err := json.Unmarshal(line, &rl); err != nil {
				return nil, fmt.Errorf("obs: line %d: bad round: %v", lineNo, err)
			}
			s, err := rl.sample()
			if err != nil {
				return nil, fmt.Errorf("obs: line %d: %v", lineNo, err)
			}
			switch {
			case len(cur.Rounds) == 0:
				if s.Round != 0 {
					return nil, fmt.Errorf("obs: line %d: first round is %d, want 0", lineNo, s.Round)
				}
			case s.Round == cur.Rounds[len(cur.Rounds)-1].Round+1:
				// contiguous
			case s.Round == 0:
				// A scenario driver started another engine run inside the same
				// segment; legal, but the segment's end summary no longer
				// mirrors the round sums.
				sawReset = true
			default:
				return nil, fmt.Errorf("obs: line %d: round %d after %d", lineNo, s.Round, cur.Rounds[len(cur.Rounds)-1].Round)
			}
			cur.Rounds = append(cur.Rounds, s)
		case "e":
			if cur == nil {
				return nil, fmt.Errorf("obs: line %d: end line outside a run", lineNo)
			}
			var e endLine
			if err := json.Unmarshal(line, &e); err != nil {
				return nil, fmt.Errorf("obs: line %d: bad end: %v", lineNo, err)
			}
			if e.Run != len(t.Runs) {
				return nil, fmt.Errorf("obs: line %d: end run index %d, want %d", lineNo, e.Run, len(t.Runs))
			}
			cur.End = End{Rounds: e.Rounds, Msgs: e.Msgs, Words: e.Words, Failed: e.Failed}
			if !sawReset && !e.Failed {
				var msgs, words int64
				for _, s := range cur.Rounds {
					msgs += int64(s.Messages)
					words += int64(s.Words)
				}
				if e.Rounds != len(cur.Rounds) || e.Msgs != msgs || e.Words != words {
					return nil, fmt.Errorf("obs: line %d: end summary (rounds=%d msgs=%d words=%d) contradicts round sums (rounds=%d msgs=%d words=%d)",
						lineNo, e.Rounds, e.Msgs, e.Words, len(cur.Rounds), msgs, words)
				}
			}
			t.Runs = append(t.Runs, *cur)
			cur = nil
		case "g":
			if cur == nil {
				return nil, fmt.Errorf("obs: line %d: timing line outside a run", lineNo)
			}
			var g timingLine
			if err := json.Unmarshal(line, &g); err != nil {
				return nil, fmt.Errorf("obs: line %d: bad timing: %v", lineNo, err)
			}
			cur.Timing = append(cur.Timing, RoundTiming{Round: g.Round, Shards: g.Shards})
		default:
			return nil, fmt.Errorf("obs: line %d: unknown line type %q", lineNo, probe.T)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading trace: %w", err)
	}
	if cur != nil {
		return nil, fmt.Errorf("obs: trace ends inside run %d (missing end line)", len(t.Runs))
	}
	if len(t.Runs) == 0 {
		return nil, fmt.Errorf("obs: empty trace")
	}
	return t, nil
}

// Validate parses data and reports the first structural violation, if any.
func Validate(data []byte) error {
	_, err := Parse(bytes.NewReader(data))
	return err
}

// sample converts a wire round line into an ncc.RoundSample, checking the
// per-line arithmetic the engine guarantees.
func (rl *roundLine) sample() (ncc.RoundSample, error) {
	s := ncc.RoundSample{
		Round:             rl.Round,
		Messages:          rl.Msgs,
		Delivered:         rl.Delivered,
		Words:             rl.Words,
		Active:            rl.Active,
		Finished:          rl.Finished,
		Down:              rl.Down,
		MaxSendLoad:       rl.MaxSend,
		MaxRecvOffered:    rl.MaxRecv,
		MaxRecvDelivered:  rl.MaxRecvDelivered,
		RecvThrottled:     rl.RecvThrottled,
		DroppedFault:      rl.DroppedFault,
		DroppedDead:       rl.DroppedDead,
		DroppedToFinished: rl.DroppedToFinished,
	}
	for _, v := range []int{s.Round, s.Messages, s.Delivered, s.Words, s.Active, s.Finished, s.Down,
		s.MaxSendLoad, s.MaxRecvOffered, s.MaxRecvDelivered,
		s.RecvThrottled, s.DroppedFault, s.DroppedDead, s.DroppedToFinished} {
		if v < 0 {
			return s, fmt.Errorf("negative field in round %d", s.Round)
		}
	}
	if s.Delivered != s.Messages-s.RecvThrottled {
		return s, fmt.Errorf("round %d: delivered=%d, want msgs-recvThrottled=%d", s.Round, s.Delivered, s.Messages-s.RecvThrottled)
	}
	if s.MaxRecvDelivered > s.MaxRecvOffered {
		return s, fmt.Errorf("round %d: maxRecvDelivered=%d exceeds maxRecv=%d", s.Round, s.MaxRecvDelivered, s.MaxRecvOffered)
	}
	return s, nil
}
