package ncc

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"unsafe"
)

// TestMessageLayout pins the size of the two message structs every round
// copies, and that neither holds a pointer, so outboxes, buckets and inboxes
// stay arrays the garbage collector does not scan.
func TestMessageLayout(t *testing.T) {
	if got := unsafe.Sizeof(Envelope{}); got != 32 {
		t.Errorf("Envelope is %d bytes, want 32", got)
	}
	if got := unsafe.Sizeof(Received{}); got != 32 {
		t.Errorf("Received is %d bytes, want 32", got)
	}
	if path := pointerField(reflect.TypeOf(Envelope{}), "Envelope"); path != "" {
		t.Errorf("Envelope holds a pointer at %s", path)
	}
	if path := pointerField(reflect.TypeOf(Received{}), "Received"); path != "" {
		t.Errorf("Received holds a pointer at %s", path)
	}
}

// pointerField returns the path of the first pointer-bearing part of t, or
// "" if t has none.
func pointerField(t reflect.Type, path string) string {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if p := pointerField(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
		return ""
	case reflect.Array:
		return pointerField(t.Elem(), path+"[]")
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	default:
		return path + " (" + t.String() + ")"
	}
}

// payloadWord is word k of the payload sender from sends as its index-th
// message of round r.
func payloadWord(from, r, index, k int) uint64 {
	x := uint64(from)<<40 | uint64(r)<<20 | uint64(index)<<8 | uint64(k)
	x ^= x >> 31
	x *= 0x9e3779b97f4a7c15
	return x ^ x>>29
}

// TestWordPayloadsSurviveTruncation sends payloads of every width 1..MaxWords
// through every send path to a few hot receivers, so receive caps truncate
// inboxes that mix inline and arena-backed messages, and checks that each
// delivered payload is exactly what its sender sent, that inboxes are
// sender-sorted and that the probe's Delivered counts what the inboxes hold.
func TestWordPayloadsSurviveTruncation(t *testing.T) {
	const (
		n      = 96
		rounds = 6
	)
	hot := [3]int{0, 1, 2}
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var inboxed, delivered atomic.Int64
			cfg := Config{N: n, Seed: 5, CapFactor: 1, Workers: workers,
				Probe: func(s RoundSample, _ []ShardTiming) { delivered.Add(int64(s.Delivered)) }}
			maxw := cfg.withDefaults().MaxWords
			st, err := Run(cfg, func(ctx *Context) {
				me := ctx.ID()
				buf := make([]uint64, maxw)
				for r := 0; r < rounds; r++ {
					for k := 0; k < ctx.Cap(); k++ {
						to := (me + 1 + 7*k + r) % n
						if k < len(hot) {
							to = hot[k]
							if to == me {
								to = hot[(k+1)%len(hot)]
							}
						}
						w := 1 + (me+r+k)%maxw
						for i := range buf[:w] {
							buf[i] = payloadWord(me, r, k, i)
						}
						switch {
						case k%2 == 0:
							ctx.SendWords(to, buf[:w])
						case w == 1:
							ctx.SendWord(to, Word(buf[0]))
						case w == 2:
							ctx.SendWords2(to, Words2{buf[0], buf[1]})
						default:
							ctx.SendWords(to, buf[:w])
						}
					}
					in := ctx.EndRound()
					inboxed.Add(int64(len(in)))
					for i := range in {
						if i > 0 && in[i].From < in[i-1].From {
							panic(fmt.Sprintf("node %d round %d: inbox not sender-sorted", me, r))
						}
						checkPayload(ctx, &in[i], r, maxw)
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if st.DroppedRecvOverflow == 0 {
				t.Fatal("no receive truncation: the hot receivers were not overloaded")
			}
			if got, want := inboxed.Load(), delivered.Load(); got != want || want != st.Messages-st.DroppedRecvOverflow {
				t.Errorf("inboxes hold %d messages, probe Delivered sums to %d, Stats say %d",
					got, want, st.Messages-st.DroppedRecvOverflow)
			}
		})
	}
}

// msgWords returns the words of m, a message from ctx's inbox, whatever its
// width.
func msgWords(ctx *Context, m *Received) []uint64 {
	if w, ok := m.AsWord(); ok {
		return []uint64{uint64(w)}
	}
	if w, ok := m.AsWords2(); ok {
		return w[:]
	}
	w, _ := ctx.Words(m)
	return w
}

// checkPayload panics unless m, a message from ctx's inbox, decodes to a
// message sent in round r: its width follows from (sender, round, index) and
// every word matches.
func checkPayload(ctx *Context, m *Received, r, maxw int) {
	words := msgWords(ctx, m)
	for index := 0; index < 64; index++ {
		if words[0] != payloadWord(m.From, r, index, 0) {
			continue
		}
		if w := 1 + (m.From+r+index)%maxw; len(words) != w {
			panic(fmt.Sprintf("message %d of node %d round %d: %d words, sent %d", index, m.From, r, len(words), w))
		}
		for k, x := range words {
			if x != payloadWord(m.From, r, index, k) {
				panic(fmt.Sprintf("message %d of node %d round %d: word %d corrupted", index, m.From, r, k))
			}
		}
		return
	}
	panic(fmt.Sprintf("message from node %d in round %d decodes to nothing it sent", m.From, r))
}
