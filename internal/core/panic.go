package core

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// WorkerPanic is how a panic on a pipeline-worker goroutine reaches
// the caller of FeedEpoch/Finish: the goroutine's panic is captured where it
// erupts, carried across the barrier/WaitGroup join, and re-panicked on the
// feeding goroutine wrapped in this type. The server recovers it there and
// quarantines the one session whose lifeguard misbehaved; without the wrap, a
// panic on a bare worker goroutine would kill the whole process no matter
// what the server deferred.
type WorkerPanic struct {
	Val   any    // the original panic value
	Stack []byte // debug.Stack() captured on the panicking goroutine
}

func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("worker panic: %v", p.Val)
}

// panicBox collects the first panic observed across a group of goroutines.
// `defer box.capture()` around a pass converts a panic into a recorded
// WorkerPanic so the goroutine can keep walking its barriers (a worker that
// dies mid-tick would deadlock its siblings); rethrow re-panics the recorded
// value on the caller. capture is used as a direct defer — not a closure —
// so the zero-panic hot path costs nothing and allocates nothing.
type panicBox struct {
	mu    sync.Mutex
	first *WorkerPanic
}

// capture must be the deferred function itself (`defer box.capture()`), or
// recover cannot see the panic. Nil-safe: with no box the panic propagates.
func (b *panicBox) capture() {
	r := recover()
	if r == nil {
		return
	}
	if b == nil {
		panic(r)
	}
	wp, ok := r.(*WorkerPanic)
	if !ok {
		wp = &WorkerPanic{Val: r, Stack: debug.Stack()}
	}
	b.mu.Lock()
	if b.first == nil {
		b.first = wp
	}
	b.mu.Unlock()
}

// rethrow re-panics the first captured panic, if any, on the calling
// goroutine. Nil-safe so serial paths can share the call site.
func (b *panicBox) rethrow() {
	if b == nil {
		return
	}
	b.mu.Lock()
	wp := b.first
	b.first = nil
	b.mu.Unlock()
	if wp != nil {
		panic(wp)
	}
}
