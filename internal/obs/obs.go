// Package obs is SAGe's zero-dependency observability substrate: the
// paper's whole argument is about where time goes — data preparation
// vs. flash read vs. decode — so every hot layer of this repository
// (the serving registry, the in-storage dispatch engine, the bench
// harness) needs machinery to attribute latency, not just count
// requests.
//
// It provides three primitives:
//
//   - Metrics: monotonic Counters, gauges read at scrape time, and
//     fixed-bucket log-spaced latency Histograms, all safe for
//     concurrent update via atomics. Single-label families (CounterVec,
//     HistogramVec) cover the per-endpoint / per-container cases.
//   - A Registry that renders everything it holds in Prometheus text
//     exposition format (hand-rolled — the repo takes no external
//     dependencies), for a GET /metrics endpoint.
//   - A lightweight span API: a Trace carries a propagated request ID
//     and aggregates named stage timings; Start(ctx, "decode") opens a
//     span against the trace in ctx, and StageTable renders the
//     attribution table ("where did the milliseconds go").
//
// Everything here is process-local and allocation-light: observing a
// histogram is two atomic adds and an atomic increment, so the
// instrumentation itself never becomes the bottleneck it measures.
package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value.
type Counter struct {
	name, help string
	labels     string // preformatted `key="value"`, or ""
	v          atomic.Int64
}

// Add increments the counter by n (negative n is ignored: counters
// only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// funcGauge is a gauge whose value is read at scrape time — for state
// another structure already holds (cache occupancy, configuration).
type funcGauge struct {
	name, help string
	fn         func() int64
}

// CounterVec is a family of Counters distinguished by one label.
type CounterVec struct {
	name, help, key string
	mu              sync.Mutex
	order           []string
	m               map[string]*Counter
}

// With returns (creating on first use) the child counter for the label
// value.
func (v *CounterVec) With(val string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.m[val]; ok {
		return c
	}
	c := &Counter{name: v.name, help: v.help, labels: fmt.Sprintf("%s=%q", v.key, val)}
	v.m[val] = c
	v.order = append(v.order, val)
	return c
}

// children snapshots the family in registration order.
func (v *CounterVec) children() []*Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]*Counter, len(v.order))
	for i, val := range v.order {
		out[i] = v.m[val]
	}
	return out
}

// HistogramVec is a family of Histograms distinguished by one label.
type HistogramVec struct {
	name, help, key string
	bounds          []int64
	mu              sync.Mutex
	order           []string
	m               map[string]*Histogram
}

// With returns (creating on first use) the child histogram for the
// label value.
func (v *HistogramVec) With(val string) *Histogram {
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok := v.m[val]; ok {
		return h
	}
	h := newHistogram(v.name, v.help, v.bounds)
	h.labels = fmt.Sprintf("%s=%q", v.key, val)
	v.m[val] = h
	v.order = append(v.order, val)
	return h
}

// children snapshots the family in registration order.
func (v *HistogramVec) children() []*Histogram {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]*Histogram, len(v.order))
	for i, val := range v.order {
		out[i] = v.m[val]
	}
	return out
}

// Registry holds metrics and renders them for /metrics. Registration
// order is exposition order, so scrapes are deterministic and diffable.
type Registry struct {
	mu    sync.Mutex
	names map[string]bool
	fams  []any // *Counter | *funcGauge | *Histogram | *CounterVec | *HistogramVec
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

// register claims a family name; duplicate names are a programming
// error (two subsystems would silently share samples).
func (r *Registry) register(name string, fam any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[name] {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	r.names[name] = true
	r.fams = append(r.fams, fam)
}

// Counter registers and returns a counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(name, c)
	return c
}

// GaugeFunc registers a gauge whose value is fn(), read at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	r.register(name, &funcGauge{name: name, help: help, fn: fn})
}

// Histogram registers and returns a latency histogram with the default
// log-spaced buckets (1µs doubling to ~2min).
func (r *Registry) Histogram(name, help string) *Histogram {
	h := newHistogram(name, help, defaultBounds())
	r.register(name, h)
	return h
}

// CounterVec registers a one-label counter family.
func (r *Registry) CounterVec(name, help, labelKey string) *CounterVec {
	v := &CounterVec{name: name, help: help, key: labelKey, m: make(map[string]*Counter)}
	r.register(name, v)
	return v
}

// HistogramVec registers a one-label histogram family with the default
// latency buckets.
func (r *Registry) HistogramVec(name, help, labelKey string) *HistogramVec {
	v := &HistogramVec{name: name, help: help, key: labelKey,
		bounds: defaultBounds(), m: make(map[string]*Histogram)}
	r.register(name, v)
	return v
}

// families snapshots the registered families.
func (r *Registry) families() []any {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]any(nil), r.fams...)
}
