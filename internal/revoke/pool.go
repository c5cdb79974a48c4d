package revoke

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Pool implements the second half of the paper's §7.1 proposal:
// "eliminating the current per-process background thread in favor of
// making the revocation system call asynchronous, backed by a shared pool
// of background, in-kernel worker threads."
//
// A Pool owns a fixed set of in-kernel worker threads serving revocation
// requests from any number of processes on the machine. Each process still
// has its own Service (epoch state, strategy, records); the pool merely
// replaces the Service's dedicated thread. Requests queue FIFO; one worker
// runs one process's epoch at a time, so two processes' epochs proceed in
// parallel when two workers are free.
type Pool struct {
	m       *kernel.Machine
	workers int
	cores   []int

	queue    []*Service
	queued   map[*Service]bool
	reqEv    *sim.Event
	shutdown bool

	// host is the process that owns the worker threads (an in-kernel
	// entity; it needs a Process for thread spawning only).
	host *kernel.Process
}

// NewPool creates a revocation worker pool with the given parallelism.
// cores pins the workers (nil = any core).
func NewPool(m *kernel.Machine, host *kernel.Process, workers int, cores []int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{
		m:       m,
		workers: workers,
		cores:   cores,
		queued:  make(map[*Service]bool),
		reqEv:   m.Eng.NewEvent(),
		host:    host,
	}
}

// Start spawns the worker threads.
func (p *Pool) Start() {
	for i := 0; i < p.workers; i++ {
		name := fmt.Sprintf("revpool-%d", i)
		p.host.Spawn(name, p.cores, func(th *kernel.Thread) {
			th.Agent = bus.AgentRevoker
			p.m.Telem.SetBase(th.Sim, telemetry.CompRevoker)
			p.work(th)
		})
	}
}

// Shutdown stops the workers. The queue is drained first: every request
// accepted before Shutdown still runs its epoch; workers exit only once
// the queue is empty. Requests submitted after Shutdown panic (see submit).
func (p *Pool) Shutdown(th *kernel.Thread) {
	p.shutdown = true
	p.reqEv.Broadcast(th.Sim)
}

// Attach creates a Service for proc that submits its revocation requests
// to this pool instead of owning a thread. Do not call Service.Start on
// the returned service.
func (p *Pool) Attach(proc *kernel.Process, cfg Config) *Service {
	s := NewService(proc, cfg)
	s.pool = p
	return s
}

// submit enqueues a service's pending revocation request. Submitting to a
// shut-down pool is a caller bug — the workers are gone, so the request
// (and the epoch the caller's quarantined memory waits on) would be
// dropped silently; panic instead of hanging the caller later.
func (p *Pool) submit(th *kernel.Thread, s *Service) {
	if p.shutdown {
		panic("revoke: revocation request submitted to a shut-down pool")
	}
	if p.queued[s] {
		return
	}
	p.queued[s] = true
	p.queue = append(p.queue, s)
	p.reqEv.Broadcast(th.Sim)
}

// work is one pool worker's loop. Workers run epochs for whichever process
// asked; the epoch executes on the worker's thread, but all process-scoped
// state (stop-the-world, epoch counter, page tables) is the target
// process's. Because kernel.Thread carries its process affiliation, the
// worker borrows a thread bound to the target process for the duration.
//
// Shutdown ordering: queued work is popped before the shutdown flag is
// honored, so a Shutdown racing a non-empty queue drains it — each queued
// service's reqPending epoch still runs — and workers exit only when the
// queue is empty.
func (p *Pool) work(th *kernel.Thread) {
	for {
		th.WaitOn(p.reqEv, func() bool { return p.shutdown || len(p.queue) > 0 })
		if len(p.queue) == 0 {
			if p.shutdown {
				return
			}
			continue
		}
		s := p.queue[0]
		p.queue = p.queue[1:]
		delete(p.queued, s)
		if !s.reqPending {
			continue
		}
		s.reqPending = false
		// Run the epoch on a kernel thread affiliated with the target
		// process so stop-the-world and cost accounting land there. The
		// borrowed thread shares our scheduling context (same sim thread).
		s.RevokeEpoch(s.P.AdoptKernelThread(th.Sim, bus.AgentRevoker))
	}
}
