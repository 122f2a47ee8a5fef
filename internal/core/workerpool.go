package core

import (
	"sync"

	"mcbfs/internal/affinity"
)

// jobKind is what the worker pool is asked to run between gates.
type jobKind int

const (
	jobSearch jobKind = iota
	jobClear
)

// workerPool is the persistent worker pool a session (Searcher or
// BatchSearcher) embeds: goroutines pinned once when the session pins
// threads, then parked on a gate between jobs.
//
// gate has workers+1 parties (the pool plus the caller) and is used
// alternately as launch and finish; its mutex is what publishes the
// caller's pre-launch writes to the workers and the workers' finish
// writes back. wg joins the pool goroutines in Close: each worker's
// deferred unpin must complete before Close returns, or it could race
// the pinning of a successor's workers.
type workerPool struct {
	gate   *barrier
	wg     sync.WaitGroup
	closed bool
	job    jobKind
}

// start launches the pool's workers; run is the session's job
// dispatcher, called as run(w, kind) on worker w for every job.
func (p *workerPool) start(workers int, pin bool, run func(w int, kind jobKind)) {
	p.gate = newBarrier(workers + 1)
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.workerLoop(w, pin, run)
	}
}

// workerLoop is one persistent pool worker.
func (p *workerPool) workerLoop(w int, pin bool, run func(w int, kind jobKind)) {
	// Registered first so it runs last: the deferred unpin below must
	// have restored the OS thread before Close's join observes the exit.
	defer p.wg.Done()
	if pin {
		if unpin, err := affinity.PinToCPU(w); err == nil {
			defer unpin()
		}
	}
	for {
		p.gate.wait()
		if p.closed {
			return
		}
		run(w, p.job)
		p.gate.wait()
	}
}

// runJob hands a job to the pool and blocks until every worker has
// finished it.
func (p *workerPool) runJob(kind jobKind) {
	p.job = kind
	p.gate.wait()
	p.gate.wait()
}

// Close shuts down the worker pool and joins it: when Close returns,
// every pool goroutine has run its last deferred call — so (when
// pinned) its OS thread's affinity is restored and a successor
// session's workers cannot race the unpinning — though the runtime may
// still count a goroutine for a moment while it returns. Results returned earlier remain readable; further searches
// fail. Close is idempotent but must not run concurrently with a
// search.
func (p *workerPool) Close() error {
	if p.closed {
		return nil
	}
	p.closed = true
	p.gate.wait() // release the pool; workers observe closed and exit
	p.wg.Wait()   // join: unpin deferreds have run when this returns
	return nil
}

// Closed reports whether Close has completed on this session. It is
// meant for owners verifying teardown (e.g. a serving pool draining a
// retired snapshot or rebinding its batch runners), not for
// synchronizing with a concurrent Close.
func (p *workerPool) Closed() bool { return p.closed }
