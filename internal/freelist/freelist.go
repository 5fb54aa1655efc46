// Package freelist keeps scratch values between uses: coder state in
// internal/qual, mapping buffers in internal/mapper, decode buffers in
// internal/core and internal/shard.
//
// A List is a channel, not a sync.Pool: a GC empties a pool, and the
// first calls after every collection — many of them in an ingest that
// allocates tens of megabytes — would allocate and zero their scratch
// again. A List keeps one value per goroutine that can run at once and
// drops what it has no room for.
//
// A List lives as long as the process, so a buffer that grows with its
// input is put back only up to MaxKeep bytes: one oversized input must
// not leave that much scratch held for good, idle or not.
package freelist

import "runtime"

// List holds up to GOMAXPROCS (or NewN's n) spare values of T.
type List[T any] chan *T

// New returns an empty list with room for one value per goroutine that
// can run at once.
func New[T any]() List[T] { return NewN[T](runtime.GOMAXPROCS(0)) }

// NewN returns an empty list with room for n values, for values that
// are held past the goroutine that took them.
func NewN[T any](n int) List[T] { return make(List[T], n) }

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

// MaxKeep is the most bytes of buffer a caller puts back; a larger one
// is dropped, and its next use allocates afresh, which costs little
// beside the work that fills that much.
const MaxKeep = 4 << 20

// PutBuf returns b to l, or drops it when its capacity passes MaxKeep.
func PutBuf(l List[[]byte], b *[]byte) {
	if cap(*b) <= MaxKeep {
		l.Put(b)
	}
}
