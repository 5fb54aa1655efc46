package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans are recorded from the
// benchmark's side of the boundary, around calls into exported functions;
// Parent is the id of the span that caused it, -1 for a root. The children of
// a core.compress or core.decompress span are the standalone calls on the same
// shard's data (they run after it, not inside it), which is how a layer's self
// time is taken from outside.
type span struct {
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Shard    int    `json:"shard"` // -1 when the call is not about one shard
	Round    int    `json:"round"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced runs call the same code.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	round    int
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload}
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, shard int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		Name: name, ID: id, Parent: parent, Workload: t.workload, Shard: shard, Round: t.round,
		StartNS: int64(time.Since(t.t0)),
	})
	return id
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].EndNS = now
	return time.Duration(now - t.spans[id].StartNS)
}

// in records fn as one span and hands it the span's id, for its children.
func (t *tracer) in(name string, parent, shard int, fn func(id int) error) error {
	id := t.begin(name, parent, shard)
	defer t.end(id)
	return fn(id)
}

// totalMS sums the durations of the current round's spans called name.
func (t *tracer) totalMS(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ns int64
	for i := range t.spans {
		if s := &t.spans[i]; s.Round == t.round && s.Name == name {
			ns += s.EndNS - s.StartNS
		}
	}
	return float64(ns) / 1e6
}

// durationsMS lists the durations of the current round's spans called name.
func (t *tracer) durationsMS(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for i := range t.spans {
		if s := &t.spans[i]; s.Round == t.round && s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return out
}

// selfMS is the self time of the current round's spans called name: their
// durations minus those of the spans naming them as parent.
func (t *tracer) selfMS(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ns int64
	for i := range t.spans {
		s := &t.spans[i]
		if s.Round != t.round {
			continue
		}
		if s.Name == name {
			ns += s.EndNS - s.StartNS
		} else if s.Parent >= 0 && t.spans[s.Parent].Name == name {
			ns -= s.EndNS - s.StartNS
		}
	}
	return float64(ns) / 1e6
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
