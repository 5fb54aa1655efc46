package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	c.Add(-10) // counters never go down
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// A gauge reads its value at scrape time.
	v := int64(7)
	r.GaugeFunc("g", "a gauge", func() int64 { return v })
	v = 4
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\ng 4\n") {
		t.Fatalf("gauge not scraped as 4:\n%s", buf.String())
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate metric name")
		}
	}()
	r.GaugeFunc("dup_total", "", func() int64 { return 0 })
}

// TestHistogramBucketEdges pins the boundary behavior: a zero
// observation lands in the first bucket, a value exactly on a bound
// lands in that bound's bucket (le is inclusive), a value past the last
// bound lands in the overflow bucket, and negatives clamp to zero.
func TestHistogramBucketEdges(t *testing.T) {
	h := newHistogram("h", "", defaultBounds())
	first := time.Duration(h.bounds[0])
	last := time.Duration(h.bounds[len(h.bounds)-1])

	h.Observe(0)
	h.Observe(-time.Second) // clamps to 0
	h.Observe(first)        // inclusive upper bound: still bucket 0
	h.Observe(first + 1)    // first value past the bound: bucket 1
	h.Observe(last)         // last finite bucket
	h.Observe(last + 1)     // overflow
	h.Observe(1 << 62)      // deep overflow

	counts, total := h.snapshot()
	if total != 7 {
		t.Fatalf("count = %d, want 7", total)
	}
	if counts[0] != 3 {
		t.Errorf("bucket 0 = %d, want 3 (zero, clamped negative, on-bound)", counts[0])
	}
	if counts[1] != 1 {
		t.Errorf("bucket 1 = %d, want 1 (just past first bound)", counts[1])
	}
	if counts[len(counts)-2] != 1 {
		t.Errorf("last finite bucket = %d, want 1", counts[len(counts)-2])
	}
	if counts[len(counts)-1] != 2 {
		t.Errorf("overflow bucket = %d, want 2", counts[len(counts)-1])
	}
	// The negative observation must not have poisoned the sum.
	if sum := h.sum.Load(); sum < 0 {
		t.Errorf("sum = %v, negative", time.Duration(sum))
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines
// while readers snapshot it and scrape the registry — the -race
// gate for the whole metrics hot path.
func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "hammered")
	c := r.Counter("c_total", "hammered")
	vec := r.HistogramVec("v_seconds", "hammered vec", "lane")
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lane := vec.With(fmt.Sprintf("lane%d", w%3))
			for i := 0; i < perWorker; i++ {
				d := time.Duration(i%1000) * time.Microsecond
				h.Observe(d)
				lane.Observe(d)
				c.Inc()
			}
		}(w)
	}
	// Concurrent readers: snapshots and full scrapes must be safe.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			h.snapshot()
			var buf bytes.Buffer
			if err := r.WritePrometheus(&buf); err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if _, got := h.snapshot(); got != workers*perWorker {
		t.Fatalf("count = %d, want %d", got, workers*perWorker)
	}
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	var vecTotal int64
	for _, child := range vec.children() {
		_, n := child.snapshot()
		vecTotal += n
	}
	if vecTotal != workers*perWorker {
		t.Fatalf("vec total = %d, want %d", vecTotal, workers*perWorker)
	}
}

// TestPrometheusExposition validates the text format end to end: every
// # TYPE line is followed by samples for that family, histogram buckets
// are cumulative with le="+Inf" equal to _count, and empty vec families
// are skipped entirely.
func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "requests")
	c.Add(3)
	r.GaugeFunc("cache_bytes", "bytes resident", func() int64 { return 1 << 20 })
	r.GaugeFunc("derived_bytes", "derived", func() int64 { return 9 })
	h := r.Histogram("latency_seconds", "latency")
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	vec := r.HistogramVec("req_seconds", "per endpoint", "endpoint")
	vec.With("shard_reads").Observe(time.Millisecond)
	vec.With("query").Observe(2 * time.Millisecond)
	r.CounterVec("empty_total", "never populated", "x") // must not emit a TYPE line

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "empty_total") {
		t.Error("empty vec family must be skipped entirely")
	}
	if !strings.Contains(out, `req_seconds_bucket{endpoint="shard_reads",le="+Inf"} 1`) {
		t.Errorf("missing labeled +Inf bucket:\n%s", out)
	}
	checkExposition(t, out)

	// Histogram bucket series must be cumulative and end at the count.
	var prev float64 = -1
	var inf, count float64
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "latency_seconds_bucket{"):
			v, err := strconv.ParseFloat(line[strings.LastIndex(line, " ")+1:], 64)
			if err != nil {
				t.Fatalf("unparsable sample %q", line)
			}
			if v < prev {
				t.Errorf("bucket series not cumulative at %q", line)
			}
			prev = v
			if strings.Contains(line, `le="+Inf"`) {
				inf = v
			}
		case strings.HasPrefix(line, "latency_seconds_count "):
			count, _ = strconv.ParseFloat(line[strings.LastIndex(line, " ")+1:], 64)
		}
	}
	if inf != 100 || count != 100 {
		t.Errorf("le=+Inf=%g count=%g, want 100/100", inf, count)
	}
}

// checkExposition asserts every # TYPE line has at least one matching
// sample — the same invariant the CI curl smoke enforces on /metrics.
func checkExposition(t *testing.T, out string) {
	t.Helper()
	lines := strings.Split(out, "\n")
	for _, line := range lines {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		parts := strings.Fields(line)
		if len(parts) != 4 {
			t.Errorf("malformed TYPE line %q", line)
			continue
		}
		name, kind := parts[2], parts[3]
		found := false
		for _, s := range lines {
			if kind == "histogram" {
				if strings.HasPrefix(s, name+"_bucket") {
					found = true
					break
				}
			} else if strings.HasPrefix(s, name+" ") || strings.HasPrefix(s, name+"{") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("# TYPE %s %s has no samples", name, kind)
		}
	}
}
