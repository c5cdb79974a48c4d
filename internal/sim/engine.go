//go:build go1.23

// The build line sets this file's language version to go1.23, the first
// with iter.Pull. The module's go line stays at 1.22 because raising it
// would break the build of the separate bench module, which requires this
// one; go vet rejects iter.Pull in a go1.22 file.

// Package sim is a deterministic multicore co-simulation kernel.
//
// Simulated threads are ordinary Go functions, each run as a coroutine
// (iter.Pull) that only Run's loop resumes, so exactly one executes at a
// time: the scheduler always resumes the entity with the smallest virtual
// clock, and runs are bit-reproducible regardless of host parallelism. Each
// core has its own cycle clock; wall-clock time is the maximum over cores,
// CPU time is the sum of busy cycles.
//
// Threads advance time explicitly by calling Tick with a cycle cost. A
// thread may run at most SkewQuantum cycles past the rest of the system
// before the scheduler rotates to the globally-lagging entity, bounding
// cross-core clock skew (the conservative-window technique of parallel
// discrete-event simulation). Independently, OSQuantum models the operating
// system's preemption slice: threads sharing a core round-robin at that
// granularity, which is what lets a background revocation thread steal
// whole scheduling quanta from application threads (§7.7 of the paper).
package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
	"sort"
	"strings"
)

// Config sets engine parameters.
type Config struct {
	// Cores is the number of CPU cores.
	Cores int
	// SkewQuantum bounds how far (in cycles) one core's clock may run ahead
	// of the globally minimal runnable entity.
	SkewQuantum uint64
	// OSQuantum is the preemption time slice for threads sharing a core.
	OSQuantum uint64
	// HzGHz is the clock rate used only for reporting (cycles → seconds).
	HzGHz float64
}

// DefaultConfig models a four-core, 2.5 GHz Morello-like machine with a
// 20 µs skew window and a 1 ms preemption slice.
func DefaultConfig() Config {
	return Config{Cores: 4, SkewQuantum: 50_000, OSQuantum: 2_500_000, HzGHz: 2.5}
}

// State is a thread's scheduling state.
type State int

// Thread states.
const (
	// Ready threads are on a core's run queue.
	Ready State = iota
	// Running is the single currently-executing thread.
	Running
	// Blocked threads wait on an Event.
	Blocked
	// Sleeping threads wait for a virtual deadline.
	Sleeping
	// Finished threads have returned.
	Finished
)

func (s State) String() string {
	switch s {
	case Ready:
		return "ready"
	case Running:
		return "running"
	case Blocked:
		return "blocked"
	case Sleeping:
		return "sleeping"
	case Finished:
		return "finished"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

type core struct {
	id    int
	clock uint64
	idle  uint64 // the gaps place jumped the clock over; busy is clock − idle
	runq  runQueue
}

// runQueue is a core's FIFO run queue: a ring over a power-of-two array
// that doubles when full, so pushing at either end and popping the head
// are O(1) and reuse the array. A fleet of connection threads puts
// thousands in one queue, so neither re-slicing past the head (which
// reallocates on every refill) nor copying down on each pop will do.
type runQueue struct {
	buf  []*Thread
	head int // index of the first thread in buf
	n    int
}

func (q *runQueue) len() int { return q.n }

// front returns the head thread; the queue must not be empty.
func (q *runQueue) front() *Thread { return q.buf[q.head] }

func (q *runQueue) pushBack(th *Thread) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = th
	q.n++
}

func (q *runQueue) pushFront(th *Thread) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.head = (q.head - 1) & (len(q.buf) - 1)
	q.buf[q.head] = th
	q.n++
}

// popFront removes the head thread; the queue must not be empty.
func (q *runQueue) popFront() {
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
}

// grow doubles the array, unwrapping the ring to start at index 0.
func (q *runQueue) grow() {
	buf := make([]*Thread, max(8, 2*len(q.buf)))
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf, q.head = buf, 0
}

// Thread is a simulated thread of execution.
type Thread struct {
	id       int
	name     string
	eng      *Engine
	affinity []int
	core     *core
	state    State

	fn func(*Thread)
	// resume runs the thread's coroutine until it parks or returns; the
	// Run loop creates it on the thread's first dispatch. park, called
	// only inside the coroutine, suspends the thread back to that loop.
	resume func() (struct{}, bool)
	park   func(struct{}) bool

	readyAt    uint64 // wake time carried from waker
	wakeAt     uint64 // sleep deadline
	lastClock  uint64 // thread's own clock at its last yield (monotone)
	sliceEnd   uint64 // end of current engine skew slice (core clock)
	osSliceEnd uint64 // end of current OS preemption slice (core clock)
	cpu        uint64 // busy cycles consumed
	obsCPU     uint64 // cpu already delivered to the observer
	// limit is the core clock at which Tick leaves its fast path: sliceEnd,
	// or 0 (every Tick) while a classic engine has an observer. setSliceEnd
	// and refreshLimit keep it current.
	limit uint64

	blockedOn *Event
}

// ClockObserver receives every core-clock advance. Busy delivers cycles
// charged by Tick to the running thread; Idle is invoked when a core's
// clock jumps forward to a waking thread's ready time (the core had
// nothing to run in the gap). For any core, the busy and idle cycles
// delivered to an observer sum exactly to that core's clock — the
// invariant the telemetry profiler's conservation check rests on.
//
// Tick itself never calls the observer: the running thread's cycles since
// its last delivery go out as one Busy call at every scheduling point
// (yield, slice end, thread end), before every Idle, and whenever
// Engine.FlushClock is called (telemetry flushes around attribution
// changes). Totals, per-(core,thread) attribution and the conservation
// invariant are exact; only the call granularity — and therefore the
// instant at which a time-series sample boundary is noticed within a
// slice — is coarser than one call per Tick.
//
// Callbacks run synchronously, from the running thread or the Run loop
// (exactly one runs at a time), so observers need no locking and see a
// deterministic call order. They must not call back into the engine (no
// Tick, no blocking).
type ClockObserver interface {
	Busy(core, thread int, cycles uint64)
	Idle(core int, cycles uint64)
}

// Engine is the simulation kernel. Create with New, add threads with Spawn,
// then call Run from the host.
type Engine struct {
	cfg     Config
	cores   []core
	threads []*Thread
	current *Thread
	running bool
	obs     ClockObserver

	// sleepers is the min-heap of Sleeping threads ordered by (wakeAt,
	// id) (see fast.go).
	sleepers []*Thread

	// classic selects the reference scheduler the production one is
	// verified against, switched on only by this package's tests. It
	// differs in three ways only: it chooses with nextEntity's full scan,
	// parks to the Run loop at every yield, and delivers every observer
	// charge immediately.
	classic bool
}

// SetClockObserver installs the observer delivered every clock advance; a
// nil observer disables delivery. The running thread's undelivered cycles
// go to the previous observer first, and the new one receives only
// cycles charged and gaps jumped from here on.
func (e *Engine) SetClockObserver(o ClockObserver) {
	e.flushObs()
	e.obs = o
	for _, th := range e.threads {
		th.obsCPU = th.cpu
		th.refreshLimit()
	}
}

// New creates an engine.
func New(cfg Config) *Engine {
	if cfg.Cores <= 0 {
		panic("sim: need at least one core")
	}
	if cfg.SkewQuantum == 0 || cfg.OSQuantum == 0 {
		panic("sim: quanta must be positive")
	}
	e := &Engine{cfg: cfg}
	e.cores = make([]core, cfg.Cores)
	for i := range e.cores {
		e.cores[i].id = i
	}
	return e
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Spawn creates a thread restricted to the given cores (nil means any core)
// that will execute fn. Threads may be spawned before Run or by a running
// thread.
func (e *Engine) Spawn(name string, affinity []int, fn func(*Thread)) *Thread {
	if len(affinity) == 0 {
		affinity = make([]int, len(e.cores))
		for i := range affinity {
			affinity[i] = i
		}
	}
	for _, c := range affinity {
		if c < 0 || c >= len(e.cores) {
			panic(fmt.Sprintf("sim: affinity core %d out of range", c))
		}
	}
	th := &Thread{
		id:       len(e.threads),
		name:     name,
		eng:      e,
		affinity: append([]int(nil), affinity...),
		state:    Ready,
		fn:       fn,
	}
	if e.current != nil {
		th.readyAt = e.current.core.clock
	}
	e.threads = append(e.threads, th)
	e.enqueue(th)
	return th
}

// enqueue places a Ready thread at the tail of the min-clock core in its
// affinity set. This is the single insertion path for threads entering a
// run queue from outside (spawn, wake, OS-preemption rotate); a thread
// that keeps its core across an engine slice re-enters at the head via
// core.pushFront instead. Both schedulers share these two paths.
func (e *Engine) enqueue(th *Thread) {
	best := &e.cores[th.affinity[0]]
	for _, ci := range th.affinity[1:] {
		if e.cores[ci].clock < best.clock {
			best = &e.cores[ci]
		}
	}
	th.core = best
	best.runq.pushBack(th)
}

// pushFront reinserts th at the head of c's queue: its engine slice
// expired but its OS slice continues, so it keeps the core and runs again
// once it is the globally-minimal entity.
func (c *core) pushFront(th *Thread) {
	c.runq.pushFront(th)
	th.core = c
}

// nextEntity returns the runnable or sleeping thread with the smallest
// effective virtual time, or nil if none exists.
//
// Only each core's queue HEAD is considered: run queues are strictly FIFO,
// modeling an OS run queue with no priority reordering. A woken thread
// whose readyAt lies in the core's future therefore delays threads queued
// behind it even if they are ready sooner — its wake was already committed
// to this core, and the core honors arrival order. This head-of-line
// behavior is intended semantics (pinned by TestRunQueueFIFOHeadOfLine):
// reordering by readyAt would both change the model and perturb every
// committed baseline document. Ties on effective time go to the smaller
// thread id, so selection is deterministic regardless of scan order.
// This is the classic scheduler's full scan; pickNext (fast.go) makes the
// identical choice with a sleeper heap.
func (e *Engine) nextEntity() *Thread {
	var best *Thread
	var bestT uint64
	consider := func(th *Thread, t uint64) {
		if best == nil || t < bestT || (t == bestT && th.id < best.id) {
			best, bestT = th, t
		}
	}
	for i := range e.cores {
		c := &e.cores[i]
		if c.runq.len() > 0 {
			h := c.runq.front()
			t := c.clock
			if h.readyAt > t {
				t = h.readyAt
			}
			consider(h, t)
		}
	}
	for _, th := range e.threads {
		if th.state == Sleeping {
			consider(th, th.wakeAt)
		}
	}
	return best
}

// Run executes the simulation until every thread finishes. It returns an
// error describing a deadlock if blocked threads remain with nothing
// runnable. Its loop is the only place a thread is resumed: each
// iteration picks the next entity, places it, and runs its coroutine until
// the thread parks or returns. A panic in a simulated thread propagates
// out of Run in the caller's goroutine, naming the thread and carrying its
// stack; a runtime.Goexit propagates unchanged. At deadlock the blocked
// threads' coroutines stay parked for good.
func (e *Engine) Run() error {
	if e.running {
		panic("sim: Run reentered")
	}
	e.running = true
	defer func() { e.running = false }()
	for {
		th := e.pick()
		if th == nil {
			if e.allFinished() {
				return nil
			}
			return e.deadlockError()
		}
		e.place(th)
		if th.resume == nil {
			th.resume, _ = iter.Pull(th.body)
		}
		th.resume()
		e.current = nil
	}
}

// pick makes the dispatch decision: pickNext, or under the classic
// scheduler nextEntity's scan, which wakes a winning sleeper onto a run
// queue and chooses again.
func (e *Engine) pick() *Thread {
	if !e.classic {
		return e.pickNext()
	}
	for {
		th := e.nextEntity()
		if th == nil || th.state != Sleeping {
			return th
		}
		th.state = Ready
		th.readyAt = th.wakeAt
		e.enqueue(th)
	}
}

func (e *Engine) allFinished() bool {
	for _, th := range e.threads {
		if th.state != Finished {
			return false
		}
	}
	return true
}

func (e *Engine) deadlockError() error {
	var stuck []string
	for _, th := range e.threads {
		if th.state != Finished {
			stuck = append(stuck, fmt.Sprintf("%s(%s)", th.name, th.state))
		}
	}
	sort.Strings(stuck)
	return fmt.Errorf("sim: deadlock: no runnable threads; waiting: %s", strings.Join(stuck, ", "))
}

// place pops th from the head of its core's queue and makes it the running
// thread: the core's clock jumps over any idle gap to the thread's ready
// time, and its engine/OS slices are refreshed. Both schedulers perform
// this exact mutation sequence for every dispatch decision.
func (e *Engine) place(th *Thread) {
	c := th.core
	if c.runq.len() == 0 || c.runq.front() != th {
		panic("sim: dispatch of thread not at queue head")
	}
	c.runq.popFront()
	if th.readyAt > c.clock {
		gap := th.readyAt - c.clock
		c.clock = th.readyAt // the core was idle until the thread woke
		c.idle += gap
		if e.obs != nil {
			e.flushObs() // undelivered busy cycles precede the gap
			e.obs.Idle(c.id, gap)
		}
	}
	th.state = Running
	th.setSliceEnd(c.clock + e.cfg.SkewQuantum)
	if th.osSliceEnd <= c.clock {
		th.osSliceEnd = c.clock + e.cfg.OSQuantum
	}
	e.current = th
}

// body is th's coroutine: the thread function, then the end of the
// thread. iter.Pull re-raises a panic in the Run loop, whose stack shows
// nothing of the thread, so the panic is re-raised here first with the
// thread's name and its own stack. recover returns nil for a Goexit,
// which passes through unchanged.
func (th *Thread) body(park func(struct{}) bool) {
	th.park = park
	defer func() {
		if r := recover(); r != nil {
			panic(fmt.Sprintf("sim: thread %s panicked: %v\n\n%s", th.name, r, debug.Stack()))
		}
	}()
	th.fn(th)
	th.state = Finished
	th.eng.flushObs()
}

// yield is the scheduling point. The caller has already recorded the
// thread's new state (requeued Ready, Sleeping, or Blocked). While the
// thread is still the globally-minimal entity it continues in place
// (run-to-block: no switch at all); otherwise it parks, and the Run loop
// dispatches the winner, which it recomputes to the same thread. The
// classic scheduler parks at every yield.
func (th *Thread) yield() {
	e := th.eng
	e.flushObs() // th's undelivered busy cycles go out before scheduling
	if c := th.core.clock; c > th.lastClock {
		th.lastClock = c
	}
	if !e.classic {
		if th.state == Sleeping {
			e.pushSleeper(th)
		}
		if e.pickNext() == th {
			e.place(th)
			return
		}
	}
	th.park(struct{}{})
}

// Tick charges cycles of work to the calling thread's core. It is the only
// way virtual time advances. If the thread exhausts its engine slice it may
// be rotated out; if it exhausts its OS slice and other threads are waiting
// for the core, it is preempted to the back of the run queue.
//
// Tick is small enough to inline at every call site: it advances the core
// clock and the thread's CPU and compares the clock with one limit; the
// slice end and a classic engine's immediate observer delivery both wait
// behind that one comparison in tickSlow.
func (th *Thread) Tick(cycles uint64) {
	c := th.core
	c.clock += cycles
	th.cpu += cycles
	if c.clock >= th.limit {
		th.tickSlow()
	}
}

// tickSlow is Tick's path past the limit: the classic engine's immediate
// Busy delivery, then the end of the engine slice.
func (th *Thread) tickSlow() {
	e := th.eng
	if e.classic {
		e.flushObs()
	}
	if th.core.clock >= th.sliceEnd {
		th.reschedule()
	}
	th.refreshLimit()
}

// setSliceEnd starts a new engine slice ending at core clock end.
func (th *Thread) setSliceEnd(end uint64) {
	th.sliceEnd = end
	th.refreshLimit()
}

// refreshLimit recomputes the clock at which Tick must take its slow path.
func (th *Thread) refreshLimit() {
	th.limit = th.sliceEnd
	if th.eng.classic && th.eng.obs != nil {
		th.limit = 0
	}
}

// reschedule ends the current engine slice: the thread goes back to Ready
// (front of queue if its OS slice continues, back otherwise) and control
// returns to the scheduler to run whoever is globally behind. Its cycles
// are delivered first, on the core that ran them: enqueue may migrate it.
func (th *Thread) reschedule() {
	th.eng.flushObs()
	c := th.core
	th.state = Ready
	th.readyAt = c.clock
	if c.clock >= th.osSliceEnd && c.runq.len() > 0 {
		// OS preemption: rotate to the back of a run queue, allowing
		// migration.
		th.osSliceEnd = 0
		th.eng.enqueue(th)
	} else {
		// Engine slice only: keep the core and the OS slice.
		c.pushFront(th)
	}
	th.yield()
	th.state = Running
	c = th.core
	th.setSliceEnd(c.clock + th.eng.cfg.SkewQuantum)
	if th.osSliceEnd <= c.clock {
		th.osSliceEnd = c.clock + th.eng.cfg.OSQuantum
	}
}

// Yield voluntarily ends the thread's OS slice.
func (th *Thread) Yield() {
	th.osSliceEnd = 0
	th.setSliceEnd(0)
	th.Tick(0)
}

// Sleep blocks the thread for the given number of cycles of virtual time.
func (th *Thread) Sleep(cycles uint64) {
	th.state = Sleeping
	th.wakeAt = th.core.clock + cycles
	th.yield()
	th.state = Running
	th.setSliceEnd(th.core.clock + th.eng.cfg.SkewQuantum)
	th.osSliceEnd = th.core.clock + th.eng.cfg.OSQuantum
}

// Now returns the thread's current virtual time (its core's clock).
func (th *Thread) Now() uint64 { return th.core.clock }

// CPU returns the busy cycles this thread has consumed.
func (th *Thread) CPU() uint64 { return th.cpu }

// Name returns the thread's name.
func (th *Thread) Name() string { return th.name }

// ID returns the thread's engine-wide identifier.
func (th *Thread) ID() int { return th.id }

// CoreID returns the core the thread is currently placed on.
func (th *Thread) CoreID() int { return th.core.id }

// State returns the thread's scheduling state.
func (th *Thread) State() State { return th.state }

// Engine returns the owning engine.
func (th *Thread) Engine() *Engine { return th.eng }

// WallClock returns the maximum core clock — elapsed wall time.
func (e *Engine) WallClock() uint64 {
	var m uint64
	for i := range e.cores {
		if e.cores[i].clock > m {
			m = e.cores[i].clock
		}
	}
	return m
}

// CoreClock returns core i's clock.
func (e *Engine) CoreClock(i int) uint64 { return e.cores[i].clock }

// CoreBusy returns core i's cumulative busy cycles (CPU time): its clock
// less the idle gaps it jumped over.
func (e *Engine) CoreBusy(i int) uint64 { return e.cores[i].clock - e.cores[i].idle }

// TotalCPU returns busy cycles summed over all cores.
func (e *Engine) TotalCPU() uint64 {
	var t uint64
	for i := range e.cores {
		t += e.CoreBusy(i)
	}
	return t
}

// Seconds converts cycles to seconds at the configured clock rate.
func (e *Engine) Seconds(cycles uint64) float64 {
	return float64(cycles) / (e.cfg.HzGHz * 1e9)
}

// Threads returns all threads ever spawned.
func (e *Engine) Threads() []*Thread { return e.threads }

// Event is a broadcast condition in virtual time. The zero value is not
// usable; create with NewEvent.
type Event struct {
	eng     *Engine
	waiters []*Thread
}

// NewEvent creates an Event on the engine.
func (e *Engine) NewEvent() *Event { return &Event{eng: e} }

// Wait blocks th until another thread calls Broadcast. Because exactly one
// simulated thread runs at a time there are no lost-wakeup races: check
// your predicate in a loop around Wait.
func (ev *Event) Wait(th *Thread) {
	th.state = Blocked
	th.blockedOn = ev
	ev.waiters = append(ev.waiters, th)
	th.yield()
	th.state = Running
	th.setSliceEnd(th.core.clock + th.eng.cfg.SkewQuantum)
	th.osSliceEnd = th.core.clock + th.eng.cfg.OSQuantum
}

// Broadcast wakes all waiters at the waker's current virtual time. A
// waiter whose own clock already passed that time resumes at its own clock
// instead: causality never runs backwards, even when a lagging core's
// thread performs the wake. Waking never yields, so no thread can Wait
// during the loop, and the emptied waiter list keeps its array.
func (ev *Event) Broadcast(waker *Thread) {
	now := waker.core.clock
	ws := ev.waiters
	ev.waiters = ws[:0]
	for i, th := range ws {
		ws[i] = nil
		th.blockedOn = nil
		th.state = Ready
		th.readyAt = now
		if th.lastClock > now {
			th.readyAt = th.lastClock
		}
		ev.eng.enqueue(th)
	}
}

// WaitUntil blocks th until cond() is true, re-testing after each Broadcast
// of ev.
func (ev *Event) WaitUntil(th *Thread, cond func() bool) {
	for !cond() {
		ev.Wait(th)
	}
}
