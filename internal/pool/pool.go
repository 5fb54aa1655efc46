// Package pool is the repository's one worker pool. Drain claims jobs
// from a source one at a time, works them on up to a given number of
// workers, the caller among them, and hands the results back in claim
// order with a bounded number in flight; Each is Drain over the indices
// [0, n), and Ranges is Each over [0, n) cut into fixed-size ranges. The shard writer and every
// whole-container reader (internal/shard), the mapping planner
// (internal/core), the Spring-like and pigz baselines (internal/springc,
// internal/gzipc), the mapping-only benchmark phase (internal/bench)
// and the BGZF member tier (internal/pargz) all run on it; none keeps
// goroutines, channels or WaitGroups of its own for the work.
package pool

import (
	"io"
	"runtime"
	"sync"
)

// Drain runs workers (>= 1) workers, the caller among them, that claim
// jobs from next, one call at a time in claim order, until it returns
// io.EOF; work runs on each job, and emit receives the results in
// claim order, one call at a time. There is no feeder and no writer
// goroutine: the worker that claims a job calls next, and the worker
// that finishes the next job in order emits it, then any later ones
// already finished. A job is claimed only while fewer than workers+1
// are claimed and not yet emitted, so at most workers+1 jobs or results
// are resident however slow emit is. The first error from next, work or
// emit stops all further claims (next is not called again), and Drain
// returns it once every worker has stopped. After next returns io.EOF,
// Drain returns nil only once every claimed job has been emitted.
func Drain[J, T any](next func() (J, error), workers int, work func(J) (T, error), emit func(T) error) error {
	p := &pool[J, T]{next: next, work: work, emit: emit, parked: make([]parked[T], workers+1)}
	p.cond.L = &p.mu
	var wg sync.WaitGroup
	for range workers - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.run()
		}()
	}
	p.run()
	wg.Wait()
	return p.err
}

// Each is Drain over the indices [0, n): work runs on each index, and
// emit receives the results in index order, on up to workers workers
// (<= 0 uses GOMAXPROCS, and never more than there are indices).
func Each[T any](n, workers int, work func(i int) (T, error), emit func(T) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	i := 0
	return Drain(func() (int, error) {
		if i == n {
			return 0, io.EOF
		}
		i++
		return i - 1, nil
	}, max(1, min(workers, n)), work, emit)
}

// rangeSize is the number of indices Ranges hands a worker per claim.
const rangeSize = 64

// Ranges runs fn over [0, n) cut into consecutive ranges [lo, hi) of at
// most 64 indices, on Each with up to workers workers (<= 0 uses
// GOMAXPROCS, and never more than there are ranges). A range is the
// unit of claim, so a worker pays one claim per range, not one per
// index, and fn can keep scratch across the indices of its range. fn
// runs on ranges concurrently and in no set order; Ranges returns once
// fn has returned on every range.
func Ranges(n, workers int, fn func(lo, hi int)) {
	Each((n+rangeSize-1)/rangeSize, workers, func(r int) (struct{}, error) {
		lo := r * rangeSize
		fn(lo, min(lo+rangeSize, n))
		return struct{}{}, nil
	}, func(struct{}) error { return nil })
}

// pool is the state Drain's workers share, under mu. Jobs
// [emitted, claimed) are claimed and not yet emitted; a result finished
// out of turn waits in parked[i%len(parked)], a slot no other claimed
// job maps to.
type pool[J, T any] struct {
	next    func() (J, error)
	work    func(J) (T, error)
	emit    func(T) error
	mu      sync.Mutex
	cond    sync.Cond // emitted advanced, or the pool ended
	claimed int
	emitted int
	parked  []parked[T]
	done    bool // next returned io.EOF
	err     error
}

type parked[T any] struct {
	v  T
	ok bool
}

// run claims jobs and works them until next is exhausted or a worker
// failed. A result finished out of turn is parked; the one in turn is
// emitted, and so are the parked ones after it. next runs under mu,
// which makes claims serial and numbers them in order; a worker that
// finishes meanwhile waits for it before it parks or emits, a wait its
// own next claim would make anyway. next must not wait on emit.
func (p *pool[J, T]) run() {
	p.mu.Lock()
	for {
		for p.err == nil && !p.done && p.claimed-p.emitted == len(p.parked) {
			p.cond.Wait()
		}
		if p.err != nil || p.done {
			p.mu.Unlock()
			return
		}
		j, err := p.next()
		if err == io.EOF {
			p.done = true
			p.cond.Broadcast()
			continue
		}
		if err != nil {
			p.fail(err)
			continue
		}
		i := p.claimed
		p.claimed++
		p.mu.Unlock()
		v, err := p.work(j)
		p.mu.Lock()
		if err != nil {
			p.fail(err)
		}
		for p.err == nil {
			if i != p.emitted {
				p.parked[i%len(p.parked)] = parked[T]{v, true}
				break
			}
			p.mu.Unlock()
			err := p.emit(v)
			p.mu.Lock()
			if err != nil {
				p.fail(err)
				break
			}
			p.emitted++
			p.cond.Broadcast()
			s := &p.parked[p.emitted%len(p.parked)]
			if !s.ok {
				break
			}
			i, v = p.emitted, s.v
			*s = parked[T]{}
		}
	}
}

// fail keeps the pool's first error and wakes every waiting worker.
func (p *pool[J, T]) fail(err error) {
	if p.err == nil {
		p.err = err
	}
	p.cond.Broadcast()
}
