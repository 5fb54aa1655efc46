// Package freelist keeps scratch values between uses: coder state in
// internal/qual, mapping buffers in internal/mapper.
//
// A List is a channel, not a sync.Pool: a GC empties a pool, and the
// first calls after every collection — many of them in an ingest that
// allocates tens of megabytes — would allocate and zero their scratch
// again. A List keeps one value per goroutine that can run at once and
// drops what it has no room for.
package freelist

import "runtime"

// List holds up to GOMAXPROCS spare values of T.
type List[T any] chan *T

// New returns an empty list with room for one value per goroutine that
// can run at once.
func New[T any]() List[T] { return make(List[T], runtime.GOMAXPROCS(0)) }

// Get returns a spare value, or a new zero one when the list is empty.
func (l List[T]) Get() *T {
	select {
	case v := <-l:
		return v
	default:
		return new(T)
	}
}

// Put returns v to the list, or drops it when the list is full.
func (l List[T]) Put(v *T) {
	select {
	case l <- v:
	default:
	}
}
