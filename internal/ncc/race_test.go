//go:build race

package ncc

// The race detector doubles the runtime's nosplit stack reserve, to 1600 B:
// with iter.Pull's ~450 B of resting frames a suspended coroutine uses more
// than a quarter of 8 KiB, so its stack shrinks no further.
func init() { restStack = 8 << 10 }
