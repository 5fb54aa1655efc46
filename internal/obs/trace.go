package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Trace aggregates the named stage timings of one logical operation —
// an HTTP request, an in-storage scan — under a propagated ID. Spans
// opened against it fold into per-stage totals (a stage hit many times,
// like one decode per shard, keeps its call count), so a finished trace
// answers the question the paper keeps asking: which stage owns the
// critical path.
type Trace struct {
	ID string

	mu     sync.Mutex
	order  []string
	stages map[string]*StageTiming
}

// StageTiming is one aggregated stage of a trace.
type StageTiming struct {
	Stage string
	Calls int
	Total time.Duration
}

// Mean returns the stage's mean span duration, 0 when empty.
func (st StageTiming) Mean() time.Duration {
	if st.Calls == 0 {
		return 0
	}
	return st.Total / time.Duration(st.Calls)
}

// NewTrace starts a trace under id.
func NewTrace(id string) *Trace {
	return &Trace{ID: id, stages: make(map[string]*StageTiming)}
}

// add folds one finished span into the stage aggregate.
func (t *Trace) add(name string, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.stages[name]
	if !ok {
		st = &StageTiming{Stage: name}
		t.stages[name] = st
		t.order = append(t.order, name)
	}
	st.Calls++
	st.Total += d
}

// Stages snapshots the aggregated stage timings in first-seen order.
func (t *Trace) Stages() []StageTiming {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]StageTiming, len(t.order))
	for i, name := range t.order {
		out[i] = *t.stages[name]
	}
	return out
}

// Span is one open stage interval. End closes it and folds it into its
// trace; a span whose trace is nil still measures (End returns the
// duration) but records nowhere, so instrumented code needs no nil
// checks.
type Span struct {
	t     *Trace
	name  string
	start time.Time
}

// End closes the span, records it, and returns its duration. Ending
// twice records twice; don't.
func (s *Span) End() time.Duration {
	d := time.Since(s.start)
	if s.t != nil {
		s.t.add(s.name, d)
	}
	return d
}

// StartSpan opens a span directly against the trace. Safe on a nil
// trace.
func (t *Trace) StartSpan(name string) *Span {
	return &Span{t: t, name: name, start: time.Now()}
}

// ctxKey keys the trace in a context.
type ctxKey struct{}

// WithTrace returns ctx carrying t.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// TraceFrom returns the trace carried by ctx, or nil.
func TraceFrom(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// Start opens a span named name against the trace in ctx (if any) and
// returns ctx unchanged alongside it — the one-liner for instrumenting
// a stage:
//
//	ctx, sp := obs.Start(ctx, "decode")
//	defer sp.End()
func Start(ctx context.Context, name string) (context.Context, *Span) {
	return ctx, TraceFrom(ctx).StartSpan(name)
}

// Request IDs: process-unique, cheap, and sortable-ish — a per-process
// epoch (start time) plus an atomic sequence number. Not globally
// unique like a UUID, but collisions require two processes started the
// same nanosecond, which a log reader can live with.
var (
	ridEpoch = time.Now().UnixNano()
	ridSeq   atomic.Int64
)

// NewRequestID mints a request ID: "<epoch-hex>-<seq-hex>".
func NewRequestID() string {
	return fmt.Sprintf("%x-%06x", uint64(ridEpoch), uint64(ridSeq.Add(1)))
}

// StageTable renders stage timings as an aligned attribution table:
// stage, calls, total, mean, and each stage's share of the summed stage
// time. This is the "where did the time go" artifact the paper's
// bottleneck analysis is built on.
func StageTable(stages []StageTiming) string {
	var total time.Duration
	for _, st := range stages {
		total += st.Total
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s  %6s  %12s  %12s  %6s\n", "stage", "calls", "total", "mean", "share")
	for _, st := range stages {
		share := 0.0
		if total > 0 {
			share = float64(st.Total) / float64(total) * 100
		}
		fmt.Fprintf(&b, "%-12s  %6d  %12v  %12v  %5.1f%%\n",
			st.Stage, st.Calls, st.Total.Round(time.Microsecond),
			st.Mean().Round(time.Microsecond), share)
	}
	return b.String()
}
