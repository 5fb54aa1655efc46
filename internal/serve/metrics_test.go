package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// scrape fetches /metrics and returns the exposition text.
func scrape(t testing.TB, base string) string {
	t.Helper()
	resp := do(t, base+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestMetricsExposition pins the acceptance criteria for /metrics: a
// request histogram for every endpoint shape (including shard and query
// routes) and the decode-pool histograms exist even before traffic, and
// every # TYPE family carries at least one sample — the same invariant
// the CI curl smoke checks.
func TestMetricsExposition(t *testing.T) {
	data, _, _ := testContainer(t, 100, 25)
	_, ts := newTestServer(t, data, Config{})

	text := scrape(t, ts.URL)

	// Every declared endpoint has its histogram pre-registered.
	for _, ep := range endpoints {
		want := fmt.Sprintf(`sage_http_request_seconds_bucket{endpoint=%q,le="+Inf"}`, ep)
		if !strings.Contains(text, want) {
			t.Errorf("cold scrape missing endpoint histogram for %q", ep)
		}
	}
	for _, fam := range []string{
		"sage_decode_queue_wait_seconds_bucket",
		"sage_decode_seconds_bucket",
		"sage_cache_hit_bytes_total",
		"sage_server_errors_total",
		"sage_cache_resident_bytes",
		"sage_cache_admission_rejects_total",
		"sage_requests_cancelled_total",
	} {
		if !strings.Contains(text, fam) {
			t.Errorf("cold scrape missing %q", fam)
		}
	}

	// Every # TYPE line must be followed by at least one sample of that
	// family (no declared-but-empty families).
	families := 0
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		families++
		name := strings.Fields(line)[2]
		if !strings.Contains(text, "\n"+name) && !strings.HasPrefix(text, name) {
			t.Errorf("family %q declared but has no samples", name)
		}
	}
	if families < 20 {
		t.Fatalf("only %d metric families exposed", families)
	}

	// Traffic moves the counters: after a decoded-shard request, the
	// shard_reads histogram count and the decode histogram advance.
	if resp := do(t, ts.URL+"/c/default/shard/0/reads", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("/c/default/shard/0/reads: status %d", resp.StatusCode)
	}
	// The latency is observed after the handler returns, and a response
	// with a Content-Length is complete to the client before that: wait
	// for the observation instead of racing it.
	const counted = `sage_http_request_seconds_count{endpoint="shard_reads"} 1`
	text = scrape(t, ts.URL)
	for deadline := time.Now().Add(5 * time.Second); !strings.Contains(text, counted) && time.Now().Before(deadline); {
		text = scrape(t, ts.URL)
	}
	if !strings.Contains(text, counted) {
		t.Error("shard_reads histogram did not count the request")
	}
	if !strings.Contains(text, "sage_decodes_total 1") {
		t.Error("decode counter view did not advance")
	}
	if strings.Contains(text, "sage_server_errors_total 1") {
		t.Error("server error counted on a clean request")
	}
}

// TestStatsEqualsMetrics: /stats and /metrics are two renderings of one
// counter set. After a mixed workload — listings, raw blocks, a range, a
// 304, cold and warm decodes, an admission rejection, an eviction, a
// pruning query, client errors, a cancelled request — every Stats
// counter equals its /metrics sample.
func TestStatsEqualsMetrics(t *testing.T) {
	data, _ := manifestContainer(t, 200, 50, false)
	c := openContainer(t, data)
	one, err := c.DecompressShard(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Room for about one decoded shard: shard 1, read once and then
	// twice as often as resident shard 0, is first turned away and then
	// admitted in its place.
	s, ts := newTestServer(t, data, Config{CacheBytes: int64(one.UncompressedSize()) + 64})
	base := ts.URL + "/c/" + defaultName
	for _, req := range []struct {
		path string
		hdr  map[string]string
	}{
		{ts.URL + "/containers", nil},
		{base + "/shards", nil},
		{base + "/files", nil},
		{base + "/shard/0", nil},
		{base + "/shard/0", map[string]string{"Range": "bytes=0-9"}},
		{base + "/shard/0", map[string]string{"If-None-Match": "*"}},
		{base + "/shard/0/reads", nil},
		{base + "/shard/0/reads", nil},
		{base + "/shard/1/reads", nil},
		{base + "/shard/1/reads", nil},
		{base + "/shard/1/reads", nil},
		{base + "/query?min-len=100000&count=1", nil},
		{base + "/query?min-len=1&count=1", nil},
		{base + "/shard/99", nil},
		{ts.URL + "/c/nope/shards", nil},
	} {
		body(t, do(t, req.path, req.hdr))
	}
	release := holdPool(s)
	cancel, done := queueRequest(t, s, ts.URL, 2)
	cancel()
	<-done
	waitFor(t, "the cancelled request to be counted", func() bool { return s.Stats().Cancelled == 1 })
	release()
	st := s.Stats()
	text := scrape(t, ts.URL)
	for name, want := range map[string]int64{
		"sage_index_requests_total":          st.IndexReads,
		"sage_block_requests_total":          st.BlockReads,
		"sage_range_requests_total":          st.RangeReads,
		"sage_not_modified_total":            st.NotModified,
		"sage_read_requests_total":           st.ReadReqs,
		"sage_file_requests_total":           st.FileReads,
		"sage_query_requests_total":          st.QueryReqs,
		"sage_shards_pruned_total":           st.ShardsPruned,
		"sage_shards_scanned_total":          st.ShardsScanned,
		"sage_query_reads_matched_total":     st.QueryMatched,
		"sage_cache_hits_total":              st.Hits,
		"sage_cache_misses_total":            st.Misses,
		"sage_decodes_total":                 st.Decodes,
		"sage_deduped_decodes_total":         st.Deduped,
		"sage_cache_evictions_total":         st.Evictions,
		"sage_cache_admission_rejects_total": st.CacheRejected,
		"sage_requests_cancelled_total":      st.Cancelled,
		"sage_client_errors_total":           st.ClientErrors,
		"sage_server_errors_total":           st.ServerErrors,
		"sage_write_failures_total":          st.WriteFailures,
	} {
		if !strings.Contains(text, fmt.Sprintf("\n%s %d\n", name, want)) {
			t.Errorf("/metrics has no sample %q = %d (the /stats value)", name, want)
		}
	}
	// The workload reached every kind of counter it set out to.
	if st.IndexReads != 2 || st.BlockReads != 2 || st.RangeReads != 1 || st.NotModified != 1 ||
		st.FileReads != 1 || st.QueryReqs != 2 || st.ShardsPruned == 0 || st.ShardsScanned == 0 ||
		st.Hits == 0 || st.Evictions == 0 || st.CacheRejected == 0 || st.Cancelled != 1 ||
		st.ClientErrors != 2 || st.ServerErrors != 0 {
		t.Errorf("mixed workload left a counter unexercised: %+v", st)
	}
}

// TestRequestIDEcho pins propagation: a client-sent ID is echoed back
// verbatim; without one the server mints an ID, and two mints differ.
func TestRequestIDEcho(t *testing.T) {
	data, _, _ := testContainer(t, 60, 30)
	_, ts := newTestServer(t, data, Config{})

	resp := do(t, ts.URL+"/c/default/shard/0/reads", map[string]string{RequestIDHeader: "client-id-42"})
	if got := resp.Header.Get(RequestIDHeader); got != "client-id-42" {
		t.Fatalf("client-provided ID echoed as %q", got)
	}

	first := do(t, ts.URL+"/stats", nil).Header.Get(RequestIDHeader)
	second := do(t, ts.URL+"/stats", nil).Header.Get(RequestIDHeader)
	if first == "" || second == "" {
		t.Fatal("server did not mint request IDs")
	}
	if first == second {
		t.Fatalf("minted IDs collide: %q", first)
	}
}

// syncBuffer is a mutex-guarded buffer for the slow log: the server
// writes the line after the response has been sent, so the test must
// not read the buffer bare while the handler goroutine may still hold
// the pen.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSlowRequestLog drops the threshold to one nanosecond so every
// request is slow, and checks the structured line carries the id, the
// endpoint, the status, and the stage attribution.
func TestSlowRequestLog(t *testing.T) {
	data, _, _ := testContainer(t, 60, 30)
	var log syncBuffer
	_, ts := newTestServer(t, data, Config{SlowRequest: time.Nanosecond, slowLog: &log})

	resp := do(t, ts.URL+"/c/default/shard/0/reads", map[string]string{RequestIDHeader: "slow-req-1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	// The line lands after the response is flushed; wait for it.
	deadline := time.Now().Add(2 * time.Second)
	for !strings.Contains(log.String(), "sage-slow-request") && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	out := log.String()
	for _, want := range []string{
		"sage-slow-request",
		"id=slow-req-1",
		"endpoint=shard_reads",
		"status=200",
		"decode:", // cold request decodes, so the trace has a decode stage
	} {
		if !strings.Contains(out, want) {
			t.Errorf("slow log missing %q:\n%s", want, out)
		}
	}

	text := scrape(t, ts.URL)
	if !strings.Contains(text, "sage_slow_requests_total") {
		t.Error("slow-request counter missing from /metrics")
	}
}

// TestStatsPerContainer pins the /stats breakdown: per-container request
// counts and each container's share of the shared cache.
func TestStatsPerContainer(t *testing.T) {
	dataA, _, _ := testContainer(t, 60, 30)
	dataB, _, _ := testContainer(t, 40, 20)
	_, ts := newRegistryServer(t, Config{},
		Named{Name: "alpha", C: openContainer(t, dataA)},
		Named{Name: "beta", C: openContainer(t, dataB)},
	)

	// Two requests to alpha (one decodes into the cache), one to beta.
	do(t, ts.URL+"/c/alpha/shard/0/reads", nil)
	do(t, ts.URL+"/c/alpha/shards", nil)
	do(t, ts.URL+"/c/beta/shards", nil)

	resp := do(t, ts.URL+"/stats", nil)
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.PerContainer) != 2 {
		t.Fatalf("per_container has %d entries, want 2", len(st.PerContainer))
	}
	alpha, beta := st.PerContainer[0], st.PerContainer[1]
	if alpha.Name != "alpha" || beta.Name != "beta" {
		t.Fatalf("container order = %q, %q", alpha.Name, beta.Name)
	}
	if alpha.Requests != 2 || beta.Requests != 1 {
		t.Errorf("requests = alpha:%d beta:%d, want 2/1", alpha.Requests, beta.Requests)
	}
	if alpha.CacheBytes <= 0 || alpha.CacheEntries != 1 {
		t.Errorf("alpha cache share = %d bytes / %d entries, want >0 / 1",
			alpha.CacheBytes, alpha.CacheEntries)
	}
	if beta.CacheBytes != 0 || beta.CacheEntries != 0 {
		t.Errorf("beta cache share = %d bytes / %d entries, want 0 / 0",
			beta.CacheBytes, beta.CacheEntries)
	}
	if alpha.Shards == 0 || alpha.Reads != 60 {
		t.Errorf("alpha totals = %d shards / %d reads", alpha.Shards, alpha.Reads)
	}

	// The same breakdown appears on /metrics as container-labeled
	// counters.
	text := scrape(t, ts.URL)
	if !strings.Contains(text, `sage_container_requests_total{container="alpha"} 2`) {
		t.Error("/metrics missing alpha container counter")
	}
	if !strings.Contains(text, `sage_container_requests_total{container="beta"} 1`) {
		t.Error("/metrics missing beta container counter")
	}
}
