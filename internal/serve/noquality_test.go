package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sage/internal/fastq"
	"sage/internal/genome"
	"sage/internal/reorder"
	"sage/internal/shard"
	"sage/internal/simulate"
)

// countingReaderAt counts the reads behind a lazily opened container.
// After Open, DecompressShard is the only reader and fetches its block
// with exactly one ReadAt, so the count is the number of core decodes
// that actually ran.
type countingReaderAt struct {
	r io.ReaderAt
	n atomic.Int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.n.Add(1)
	return c.r.ReadAt(p, off)
}

// noQualityServer compresses a simulated read set with
// IncludeQuality=false (optionally through the clump reorder stage) and
// serves it from behind a countingReaderAt, zeroed after Open.
func noQualityServer(t *testing.T, reordered bool, cfg Config) (*Server, *httptest.Server, *shard.Container, *fastq.ReadSet, *countingReaderAt) {
	return countedServer(t, false, reordered, cfg)
}

// countedServer is noQualityServer with the quality scores kept or not.
func countedServer(t *testing.T, quality, reordered bool, cfg Config) (*Server, *httptest.Server, *shard.Container, *fastq.ReadSet, *countingReaderAt) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	ref := genome.Random(rng, 20_000)
	donor, _ := genome.Donor(rng, ref, genome.HumanLikeProfile())
	rs, err := simulate.New(rng, donor).ShortReads(200, simulate.DefaultShortProfile())
	if err != nil {
		t.Fatal(err)
	}
	opt := shard.DefaultOptions(ref)
	opt.ShardReads = 50
	opt.Core.IncludeQuality = quality
	var src fastq.BatchSource = fastq.NewBatchReader(bytes.NewReader(rs.Bytes()), opt.ShardReads)
	if reordered {
		st, err := reorder.NewStage(src, reorder.Config{Mode: reorder.ModeClump, BatchSize: opt.ShardReads})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		src = st
	}
	var buf bytes.Buffer
	if _, err := shard.CompressPipeline(src, &buf, opt); err != nil {
		t.Fatal(err)
	}
	cr := &countingReaderAt{r: bytes.NewReader(buf.Bytes())}
	c, err := shard.Open(cr, int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	cr.n.Store(0)
	s, err := newServer(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts, c, rs, cr
}

// TestNoQualityRecordPaths: the record-level routes work on a container
// written without quality scores — whose text has blank quality lines —
// by walking the shard's cached text like any other: every core decode
// they cause runs on the pool (with one worker nothing deadlocks, and
// Stats().Decodes equals the decodes that actually ran), a cold shard
// decodes once, and a warm one not at all. Shards over the cache budget
// decode again on every request.
func TestNoQualityRecordPaths(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		// perPass is the decodes each pass after the first adds, in
		// shards per scanned shard.
		perPass int64
	}{
		{"cached", Config{Workers: 1}, 0},
		// Every shard exceeds the budget: the text streams from a decode
		// that keeps its pool slot until the handler is done.
		{"oversized", Config{Workers: 1, CacheBytes: 1}, 1},
	} {
		t.Run(tc.name+"/query", func(t *testing.T) {
			s, ts, c, rs, cr := noQualityServer(t, false, tc.cfg)
			n := int64(c.NumShards())
			for pass, wantDecodes := range []int64{n, n + tc.perPass*n} {
				code, body := get(t, ts.URL+"/c/default/query?min-len=1&count=1")
				if code != 200 {
					t.Fatalf("pass %d: status %d: %s", pass, code, body)
				}
				var sum querySummary
				if err := json.Unmarshal(body, &sum); err != nil {
					t.Fatal(err)
				}
				if sum.ReadsMatched != len(rs.Records) || sum.ReadsScanned != len(rs.Records) {
					t.Fatalf("pass %d: matched %d, scanned %d, want %d", pass, sum.ReadsMatched, sum.ReadsScanned, len(rs.Records))
				}
				if got := s.Stats().Decodes; got != wantDecodes || got != cr.n.Load() {
					t.Fatalf("pass %d: Stats().Decodes = %d, %d decodes ran, want %d", pass, got, cr.n.Load(), wantDecodes)
				}
			}
		})
		t.Run(tc.name+"/original", func(t *testing.T) {
			s, ts, c, rs, cr := noQualityServer(t, true, tc.cfg)
			// Shard 0's records in ascending original index, quality blank.
			n := c.Index.Entries[0].ReadCount
			orig := append([]int64(nil), c.Index.Perm[:n]...)
			for a := 1; a < len(orig); a++ {
				for b := a; b > 0 && orig[b] < orig[b-1]; b-- {
					orig[b], orig[b-1] = orig[b-1], orig[b]
				}
			}
			var want []byte
			for _, p := range orig {
				rec := rs.Records[p]
				rec.Qual = nil
				want = rec.AppendText(want)
			}
			for pass, wantDecodes := range []int64{1, 1 + tc.perPass} {
				code, body := get(t, ts.URL+"/c/default/shard/0/reads?order=original")
				if code != 200 {
					t.Fatalf("pass %d: status %d: %s", pass, code, body)
				}
				if !bytes.Equal(body, want) {
					t.Fatalf("pass %d: original-order body differs: %d bytes, want %d", pass, len(body), len(want))
				}
				if got := s.Stats().Decodes; got != wantDecodes || got != cr.n.Load() {
					t.Fatalf("pass %d: Stats().Decodes = %d, %d decodes ran, want %d", pass, got, cr.n.Load(), wantDecodes)
				}
			}
		})
	}
}

// stalledWriter is a response writer whose every Write waits until
// release is closed; entered is closed at the first one.
type stalledWriter struct {
	h        http.Header
	entered  chan struct{}
	release  chan struct{}
	enterOne sync.Once
}

func newStalledWriter() *stalledWriter {
	return &stalledWriter{h: http.Header{}, entered: make(chan struct{}), release: make(chan struct{})}
}

func (w *stalledWriter) Header() http.Header { return w.h }
func (w *stalledWriter) WriteHeader(int)     {}
func (w *stalledWriter) Write(p []byte) (int, error) {
	w.enterOne.Do(func() { close(w.entered) })
	<-w.release
	return len(p), nil
}

// TestRecordsHoldOversizedSlot: a shard's text over the cache budget
// keeps its decode-pool slot until the stream that walks it ends, on
// /query and ?order=original alike, with quality scores or without.
// With one worker, a handler stalled on a slow client mid-shard holds
// the only slot: a second query waits, and finishes once the stalled
// stream drains.
func TestRecordsHoldOversizedSlot(t *testing.T) {
	cfg := Config{Workers: 1, CacheBytes: 1}
	for _, quality := range []bool{true, false} {
		s, ts, _, _, _ := countedServer(t, quality, true, cfg)
		for _, route := range []string{"/c/default/query?min-len=1", "/c/default/shard/0/reads?order=original"} {
			name := fmt.Sprintf("quality=%v %s", quality, route)
			w := newStalledWriter()
			served := make(chan struct{})
			go func() {
				defer close(served)
				s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, route, nil))
			}()
			<-w.entered
			status := make(chan int, 1)
			go func() {
				resp, err := http.Get(ts.URL + "/c/default/query?min-len=1&count=1")
				if err != nil {
					status <- 0
					return
				}
				resp.Body.Close()
				status <- resp.StatusCode
			}()
			select {
			case code := <-status:
				t.Fatalf("%s: a second query finished (status %d) while the stalled stream held the only slot", name, code)
			case <-time.After(100 * time.Millisecond):
			}
			close(w.release)
			<-served
			if code := <-status; code != 200 {
				t.Fatalf("%s: the second query ended with status %d", name, code)
			}
		}
	}
}
