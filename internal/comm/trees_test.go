package comm

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

// Property: a sealed Trees answers every lookup exactly as the map-based
// representation built from the same arrivals: the OR of the arrival sides
// per (level, group), each group's leaf origins in arrival order, and the
// congestion. Arrivals are drawn from a small group space so that groups
// repeat at a level, on both sides, and interleave at the leaf.
func TestSealedTreesMatchMapReference(t *testing.T) {
	check := func(seed uint64, count16 uint16, groups8, levels8 uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 2))
		count := int(count16) % 600
		groups := 1 + int(groups8)%40
		levels := 1 + int(levels8)%12

		children := make([]map[uint64]uint8, levels)
		for i := range children {
			children[i] = map[uint64]uint8{}
		}
		leafOrigins := map[uint64][]int32{}
		tr := &Trees{}
		for i := 0; i < count; i++ {
			level := rng.IntN(levels)
			group := uint64(rng.IntN(groups)) * 0x9e3779b97f4a7c15 // spread over the key space
			origin := int32(rng.IntN(1 << 20))
			side := rng.IntN(2)
			tr.record(level, group, origin, side)
			if level == 0 {
				leafOrigins[group] = append(leafOrigins[group], origin)
			} else {
				children[level][group] |= 1 << side
			}
		}
		tr.seal()

		for g := 0; g <= groups; g++ { // g == groups never arrives
			group := uint64(g) * 0x9e3779b97f4a7c15
			for level := 1; level < levels; level++ {
				if tr.mask(level, group) != children[level][group] {
					return false
				}
			}
			var origins []int32
			for _, l := range tr.leaves(group) {
				if l.group != group {
					return false
				}
				origins = append(origins, l.origin)
			}
			if !slices.Equal(origins, leafOrigins[group]) {
				return false
			}
		}
		want := len(leafOrigins)
		for _, m := range children {
			want = max(want, len(m))
		}
		return tr.Congestion() == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
