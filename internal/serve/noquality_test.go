package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
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
	opt.Core.IncludeQuality = false
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
// written without quality scores — whose decoded text the strict FASTQ
// parser rejects — and every core decode they cause runs on the pool:
// with one worker nothing deadlocks, and Stats().Decodes equals the
// decodes that actually ran. A cold shard is decoded once, not twice.
func TestNoQualityRecordPaths(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"cached", Config{Workers: 1}},
		// Every shard exceeds the budget: records stream from a decode
		// that keeps its pool slot until the handler is done.
		{"oversized", Config{Workers: 1, CacheBytes: 1}},
	} {
		t.Run(tc.name+"/query", func(t *testing.T) {
			s, ts, c, rs, cr := noQualityServer(t, false, tc.cfg)
			for pass, wantDecodes := range []int64{int64(c.NumShards()), 2 * int64(c.NumShards())} {
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
				// Cold and warm alike: one decode per shard.
				if got := s.Stats().Decodes; got != wantDecodes || got != cr.n.Load() {
					t.Fatalf("pass %d: Stats().Decodes = %d, %d decodes ran, want %d", pass, got, cr.n.Load(), wantDecodes)
				}
			}
		})
		t.Run(tc.name+"/original", func(t *testing.T) {
			s, ts, c, rs, cr := noQualityServer(t, true, tc.cfg)
			code, body := get(t, ts.URL+"/c/default/shard/0/reads?order=original")
			if code != 200 {
				t.Fatalf("status %d: %s", code, body)
			}
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
			if !bytes.Equal(body, want) {
				t.Fatalf("original-order body differs: %d bytes, want %d", len(body), len(want))
			}
			if got := s.Stats().Decodes; got != 1 || got != cr.n.Load() {
				t.Fatalf("Stats().Decodes = %d, %d decodes ran, want 1", got, cr.n.Load())
			}
		})
	}
}

// TestRecordsHoldOversizedSlot: records over the cache budget keep
// their decode-pool slot until their consumer is done, whether they were
// parsed from the shard's text or, without quality, decoded straight to
// records. With one worker, a second /query waits while the first
// handler still holds its records, and finishes once they are released.
func TestRecordsHoldOversizedSlot(t *testing.T) {
	cfg := Config{Workers: 1, CacheBytes: 1}
	data, _, _ := testContainer(t, 200, 50)
	scored, scoredTS := newTestServer(t, data, cfg)
	bare, bareTS, _, _, _ := noQualityServer(t, false, cfg)
	for _, tc := range []struct {
		name string
		s    *Server
		url  string
	}{
		{"text", scored, scoredTS.URL},
		{"no-quality", bare, bareTS.URL},
	} {
		rs, done, err := tc.s.shardRecords(context.Background(), tc.s.byName[defaultName], 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(rs.Records) == 0 {
			t.Fatalf("%s: shard 0 holds no records", tc.name)
		}
		status := make(chan int, 1)
		go func() {
			resp, err := http.Get(tc.url + "/c/default/query?min-len=1&count=1")
			if err != nil {
				status <- 0
				return
			}
			resp.Body.Close()
			status <- resp.StatusCode
		}()
		select {
		case code := <-status:
			t.Fatalf("%s: a second query finished (status %d) while the first held the only slot", tc.name, code)
		case <-time.After(100 * time.Millisecond):
		}
		done()
		if code := <-status; code != 200 {
			t.Fatalf("%s: the second query ended with status %d", tc.name, code)
		}
	}
}
