//go:build go1.23

package ncc

import "iter"

// coro is a slab node's coroutine: its program runs on whichever goroutine
// calls next, up to the node's next AwaitInput or the program's end, and
// stop ends it. It is created once per slab node and resumed run after run
// (see engineMem); the zero coro is an empty slot that take fills.
type coro struct {
	next func() (bool, bool)
	stop func()
}

// newCoro returns a coroutine for slab node c, not yet started. It is a
// goroutine that carries the profiler labels of the one that creates it.
func newCoro(c *Context) coro {
	next, stop := iter.Pull(c.execute)
	return coro{next: next, stop: stop}
}

// execute is the body of node c's coroutine. Each resume after a run has
// re-initialised c starts the node's program of that run (c.r); the
// program's AwaitInput yields false once per round it runs, and its end
// yields true. A yield that returns false ends the loop: the coroutine was
// stopped.
func (c *Context) execute(yield func(bool) bool) {
	for {
		c.yield = yield
		c.r.runNode(c)
		if !yield(true) {
			return
		}
	}
}
