// The scheduler: dispatch decisions executed inline on the running
// thread's goroutine.
//
// The classic scheduler this replaced (Run's loop in engine.go, kept as
// the reference this package's tests check the inline one against) pays
// two channel round-trips per scheduling point (yielder → Run loop →
// next thread) and rescans every thread for sleepers on each dispatch.
// Here the yielding thread runs the scheduler itself: when it remains the
// globally-minimal entity it simply continues — zero handoffs for a solo
// thread's slice expiries and sleeps — and when another thread must run
// it resumes that thread directly, halving the remaining round-trips.
// Sleepers live in a min-heap keyed (wakeAt, id) instead of being found
// by scanning e.threads, and ClockObserver Busy deliveries for
// consecutive work by the same thread are coalesced into one call,
// flushed at every scheduling point (and by Engine.FlushClock) so the
// per-core busy + idle == clock conservation invariant holds exactly.
//
// Every dispatch decision and engine-state mutation is identical to the
// classic scheduler's, so simulated results are bit-identical; this
// package's equivalence tests pin that. The Run loop still exists, but
// only to bootstrap the first dispatch and to adjudicate
// termination/deadlock when a scheduling point finds nothing runnable.
package sim

// runFast is the Run loop. After each dispatch it parks on
// schedCh; control only returns here when a scheduling point found no
// runnable entity (termination or deadlock) — thread-to-thread handoffs
// bypass the loop entirely.
func (e *Engine) runFast() error {
	for {
		th := e.pickNext()
		if th == nil {
			e.flushObs()
			if e.allFinished() {
				return nil
			}
			return e.deadlockError()
		}
		e.place(th)
		if !th.started {
			e.start(th)
		}
		th.resume <- struct{}{}
		<-e.schedCh
		e.current = nil
	}
}

// pickNext makes the classic scheduler's dispatch decision with the
// sleeper heap: each core's queue head is considered (FIFO per core,
// including the intended head-of-line semantics nextEntity documents)
// against the earliest sleeper from the heap. Like the classic Run loop,
// a winning sleeper is woken onto the min-clock core of its affinity set
// and the choice re-made, since its arrival can change which head is
// globally minimal. Only the heap minimum can ever win: any other
// sleeper compares lexicographically greater on (wakeAt, id), the exact
// order nextEntity's full scan ranks sleepers by.
func (e *Engine) pickNext() *Thread {
	for {
		var best *Thread
		var bestT uint64
		for i := range e.cores {
			c := &e.cores[i]
			if len(c.runq) > 0 {
				h := c.runq[0]
				t := c.clock
				if h.readyAt > t {
					t = h.readyAt
				}
				if best == nil || t < bestT || (t == bestT && h.id < best.id) {
					best, bestT = h, t
				}
			}
		}
		if len(e.sleepers) > 0 {
			if s := e.sleepers[0]; best == nil || s.wakeAt < bestT || (s.wakeAt == bestT && s.id < best.id) {
				best = s
			}
		}
		if best == nil {
			return nil
		}
		if best.state != Sleeping {
			return best
		}
		e.popSleeper()
		best.state = Ready
		best.readyAt = best.wakeAt
		e.enqueue(best)
	}
}

// yieldFast is the scheduling point. The caller has already
// recorded the thread's new state (requeued Ready, Sleeping, or Blocked);
// here the thread runs the scheduler inline: continue in place if it is
// still the globally-minimal entity, hand off directly to the winner
// otherwise, or wake the Run loop when nothing is runnable.
func (th *Thread) yieldFast() {
	e := th.eng
	e.flushObs() // pending busy belongs to th; deliver before scheduling
	if c := th.core.clock; c > th.lastClock {
		th.lastClock = c
	}
	if th.state == Sleeping {
		e.pushSleeper(th)
	}
	next := e.pickNext()
	if next == th {
		// Run-to-block: th remains the unique minimal entity, so it keeps
		// executing with no goroutine handoff at all.
		e.place(th)
		return
	}
	if next == nil {
		// Deadlock: adjudicated by the Run loop, exactly as when a classic
		// scheduler's yield returns control there. This goroutine parks forever, like
		// any blocked thread at deadlock.
		e.schedCh <- th
		<-th.resume
		return
	}
	e.place(next)
	if !next.started {
		e.start(next)
	}
	next.resume <- struct{}{} // direct handoff: one round-trip, not two
	<-th.resume
}

// finishFast is the end-of-thread scheduling point: the
// dying goroutine dispatches the next entity directly, or wakes the Run
// loop to decide termination versus deadlock.
func (e *Engine) finishFast(th *Thread) {
	e.flushObs()
	next := e.pickNext()
	if next == nil {
		e.schedCh <- th
		return
	}
	e.place(next)
	if !next.started {
		e.start(next)
	}
	next.resume <- struct{}{}
}

// pushSleeper adds th to the sleeper min-heap, ordered by (wakeAt, id).
func (e *Engine) pushSleeper(th *Thread) {
	h := append(e.sleepers, th)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !sleepsBefore(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.sleepers = h
}

// popSleeper removes the heap minimum. Sleeping threads only ever leave
// the heap by being chosen as the globally-minimal entity, so no
// arbitrary removal is needed: Broadcast wakes Blocked threads, never
// Sleeping ones.
func (e *Engine) popSleeper() {
	h := e.sleepers
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && sleepsBefore(h[l], h[m]) {
			m = l
		}
		if r < n && sleepsBefore(h[r], h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	e.sleepers = h
}

func sleepsBefore(a, b *Thread) bool {
	return a.wakeAt < b.wakeAt || (a.wakeAt == b.wakeAt && a.id < b.id)
}

// accumBusy coalesces an observer Busy delivery with the pending batch,
// flushing first if the batch belongs to a different (core, thread).
func (e *Engine) accumBusy(core, thread int, cycles uint64) {
	if e.pendBusy != 0 && (e.pendCore != core || e.pendThread != thread) {
		e.obs.Busy(e.pendCore, e.pendThread, e.pendBusy)
		e.pendBusy = 0
	}
	e.pendCore, e.pendThread = core, thread
	e.pendBusy += cycles
}

// flushObs delivers the pending batched Busy cycles, if any. A no-op
// under the classic scheduler, which delivers every charge immediately.
func (e *Engine) flushObs() {
	if e.pendBusy != 0 {
		e.obs.Busy(e.pendCore, e.pendThread, e.pendBusy)
		e.pendBusy = 0
	}
}

// FlushClock delivers any batched observer cycles immediately. The
// engine coalesces consecutive same-thread Busy deliveries between
// scheduling points; a caller about to change how cycles are attributed
// (telemetry's Enter/Exit/SetBase) flushes first so the cycles ticked
// before the change land under the old attribution. Nil-receiver safe.
func (e *Engine) FlushClock() {
	if e == nil {
		return
	}
	e.flushObs()
}
