package ncc

import (
	"reflect"
	"strings"
	"testing"
)

func TestNodeCapsValidation(t *testing.T) {
	base := Config{N: 4, Seed: 1}
	cases := []struct {
		caps []int
		want string
	}{
		{nil, ""},
		{[]int{8, 8, 8, 8}, ""},
		{[]int{8, 8, 8}, "entries"},
		{[]int{8, 0, 8, 8}, "NodeCaps[1]"},
	}
	for _, c := range cases {
		cfg := base
		cfg.NodeCaps = c.caps
		_, err := Run(cfg, func(ctx *Context) {})
		if c.want == "" {
			if err != nil {
				t.Errorf("caps %v: %v", c.caps, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("caps %v: err = %v, want %q", c.caps, err, c.want)
		}
	}
}

func TestNodeCapsContextViews(t *testing.T) {
	cfg := Config{N: 4, Seed: 1, NodeCaps: []int{3, 9, 5, 7}}
	caps := make([]int, 4)
	mins := make([]int, 4)
	if _, err := Run(cfg, func(ctx *Context) {
		caps[ctx.ID()] = ctx.Cap()
		mins[ctx.ID()] = ctx.MinCap()
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(caps, []int{3, 9, 5, 7}) {
		t.Errorf("Cap views = %v", caps)
	}
	if !reflect.DeepEqual(mins, []int{3, 3, 3, 3}) {
		t.Errorf("MinCap views = %v", mins)
	}
	// Uniform run: Cap == MinCap == Config.Cap().
	ucfg := Config{N: 4, Seed: 1, CapFactor: 2}
	if _, err := Run(ucfg, func(ctx *Context) {
		if ctx.Cap() != ctx.MinCap() || ctx.Cap() != ucfg.Cap() {
			panic("uniform Cap/MinCap mismatch")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestNodeCapsEnforcement drives every node to flood one receiver at its own
// send cap and checks that the receiver is truncated at its own.
func TestNodeCapsEnforcement(t *testing.T) {
	const n = 8
	caps := []int{4, 2, 3, 3, 3, 3, 3, 3} // node 0 receives; 1..7 send
	st, err := Run(Config{N: n, Seed: 7, NodeCaps: caps}, func(ctx *Context) {
		if ctx.ID() != 0 {
			// Everyone floods node 0 with exactly their own send cap.
			for i := 0; i < ctx.Cap(); i++ {
				ctx.SendWord(0, Word(ctx.ID()))
			}
		}
		got := ctx.EndRound()
		if ctx.ID() == 0 && len(got) != 4 {
			panic("receiver 0 delivered beyond its cap")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Senders put 2+3*6 = 20 on the wire; receiver 0 keeps 4 of those.
	if st.MaxSendLoad != 3 {
		t.Errorf("MaxSendLoad = %d, want 3", st.MaxSendLoad)
	}
	if st.DroppedRecvOverflow != 20-4 {
		t.Errorf("DroppedRecvOverflow = %d, want 16", st.DroppedRecvOverflow)
	}
	if st.MaxRecvDelivered != 4 {
		t.Errorf("MaxRecvDelivered = %d", st.MaxRecvDelivered)
	}
	// Utilization: every sender hit its cap (util 1.0); node 0 sent nothing
	// but received at its cap, so it is 1.0 too.
	if st.CapUtilP50 != 1 || st.CapUtilMax != 1 {
		t.Errorf("capUtil p50=%v max=%v, want 1", st.CapUtilP50, st.CapUtilMax)
	}
}

func TestNodeCapsStrictPanicsPerNode(t *testing.T) {
	caps := []int{2, 8, 8, 8}
	_, err := Run(Config{N: 4, Seed: 1, NodeCaps: caps}, func(ctx *Context) {
		if ctx.ID() == 0 {
			// 3 messages exceed node 0's cap of 2, although the uniform base
			// (8 * log2 4 = 16) would have allowed them.
			ctx.SendWord(1, 1)
			ctx.SendWord(2, 1)
			ctx.SendWord(3, 1)
		}
		ctx.EndRound()
	})
	if err == nil || !strings.Contains(err.Error(), "capacity is 2") {
		t.Fatalf("err = %v", err)
	}
}

// TestNodeCapsWorkerInvariance pins the bit-identical-stats guarantee on a
// heterogeneous overloaded run: truncation subsets and utilization
// percentiles must not depend on the worker count.
func TestNodeCapsWorkerInvariance(t *testing.T) {
	const n = 64
	caps := make([]int, n)
	for i := range caps {
		caps[i] = 3 + i%7
	}
	run := func(workers int) Stats {
		st, err := Run(Config{N: n, Seed: 99, Workers: workers, NodeCaps: caps}, func(ctx *Context) {
			for r := 0; r < 4; r++ {
				for k := 0; k < min(2+ctx.ID()%9, ctx.Cap()); k++ {
					ctx.SendWord((ctx.ID()+k+1)%n, Word(r))
				}
				ctx.EndRound()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	want := run(1)
	if want.DroppedRecvOverflow == 0 {
		t.Fatal("test load never overflowed a receive capacity")
	}
	if want.CapUtilP50 <= 0 || want.CapUtilP90 < want.CapUtilP50 || want.CapUtilMax < want.CapUtilP90 {
		t.Fatalf("percentiles not ordered: %+v", want)
	}
	for _, w := range []int{2, 3, 7} {
		if got := run(w); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: stats diverge:\n got %+v\nwant %+v", w, got, want)
		}
	}
}
