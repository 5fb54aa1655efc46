package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket latency histogram. Buckets are log-spaced
// upper bounds in nanoseconds (the default ladder doubles from 1µs), an
// implicit +Inf bucket catches everything past the last bound, and
// every update is a pair of atomic adds — safe for any number of
// concurrent observers, no locks on the hot path.
type Histogram struct {
	name, help string
	labels     string
	bounds     []int64        // ascending upper bounds, ns; +Inf implicit
	counts     []atomic.Int64 // len(bounds)+1, last = overflow
	sum        atomic.Int64   // ns
}

// defaultBounds is the latency ladder shared by every default
// histogram: 1µs doubling 28 times (~2.2min), which brackets
// everything from a cache hit to a cold multi-shard decode.
func defaultBounds() []int64 {
	b := make([]int64, 28)
	for i := range b {
		b[i] = int64(time.Microsecond) << i
	}
	return b
}

func newHistogram(name, help string, bounds []int64) *Histogram {
	return &Histogram{
		name:   name,
		help:   help,
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one duration. Negative durations clamp to zero (a
// clock step backwards must not corrupt the sum).
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	// First bound >= ns; values beyond the last bound land in the
	// overflow bucket.
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= ns })
	h.counts[i].Add(1)
	h.sum.Add(ns)
}

// snapshot copies the bucket counts once, so an exposition works on a
// consistent-enough view even while observers keep writing.
func (h *Histogram) snapshot() (counts []int64, total int64) {
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	return counts, total
}
