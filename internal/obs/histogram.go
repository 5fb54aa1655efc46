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
	count      atomic.Int64
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
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total observed time.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Mean returns the mean observation, 0 when empty.
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// snapshot copies the bucket counts once, so quantile extraction works
// on a consistent-enough view even while observers keep writing.
func (h *Histogram) snapshot() (counts []int64, total int64) {
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	return counts, total
}

// Quantile returns the q-quantile (0 < q < 1) estimated by linear
// interpolation inside the bucket holding the q-th observation. The
// overflow bucket has no upper bound, so observations there report the
// last finite bound — a floor, never an invention. Empty histograms
// report 0.
func (h *Histogram) Quantile(q float64) time.Duration {
	counts, total := h.snapshot()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := 0.0
	for i, c := range counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i == len(h.bounds) {
			// Overflow: report the last finite bound.
			return time.Duration(h.bounds[len(h.bounds)-1])
		}
		lo := int64(0)
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		frac := (rank - prev) / float64(c)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		return time.Duration(float64(lo) + frac*float64(hi-lo))
	}
	return time.Duration(h.bounds[len(h.bounds)-1])
}
