// What the production scheduler adds over the classic reference: a
// sleeper min-heap keyed (wakeAt, id), so a dispatch decision need not
// scan e.threads for sleepers, and lazy ClockObserver Busy delivery: the
// running thread's cycles since its last delivery go out in one call at
// every scheduling point (and from Engine.FlushClock), so Tick never
// calls the observer and the per-core busy + idle == clock conservation
// invariant still holds exactly.
//
// Every dispatch decision and engine-state mutation is identical to the
// classic scheduler's, so simulated results are bit-identical; this
// package's equivalence tests pin that.
package sim

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
			if c.runq.len() > 0 {
				h := c.runq.front()
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

// flushObs delivers the running thread's cycles charged since its last
// delivery, if any, to the core it runs on. Under the classic scheduler
// every Tick with an observer takes the slow path, which flushes, so each
// charge is delivered as it happens.
func (e *Engine) flushObs() {
	th := e.current
	if th == nil || e.obs == nil || th.cpu == th.obsCPU {
		return
	}
	e.obs.Busy(th.core.id, th.id, th.cpu-th.obsCPU)
	th.obsCPU = th.cpu
}

// FlushClock delivers the running thread's undelivered observer cycles
// immediately. The engine delivers a thread's cycles only at scheduling
// points; a caller about to change how cycles are attributed
// (telemetry's Enter/Exit/SetBase) flushes first so the cycles ticked
// before the change land under the old attribution. Nil-receiver safe.
func (e *Engine) FlushClock() {
	if e == nil {
		return
	}
	e.flushObs()
}
