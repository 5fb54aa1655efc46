package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"

	"sage/internal/fastq"
	"sage/internal/shard"
)

// TestQueryEndpoint drives the /query push-down path end to end: an
// impossible predicate prunes every shard at zero decode cost, a k-mer
// probe streams exactly the matching records, and the stats counters
// record the plan.
func TestQueryEndpoint(t *testing.T) {
	data, _, _ := testContainer(t, 200, 50) // 4 shards, v4 writer
	s, ts := newTestServer(t, data, Config{})
	c, err := shard.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !c.HasZoneMaps() {
		t.Fatal("test container carries no zone maps")
	}
	dec := decodeRecords(t, c)

	// Impossible predicate: reads are short, min-len=999 prunes every
	// shard from the index alone — nothing is read or decoded.
	resp := do(t, ts.URL+"/c/default/query?min-len=999", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("min-len=999: status %d", resp.StatusCode)
	}
	if b := body(t, resp); len(b) != 0 {
		t.Fatalf("min-len=999 matched %d bytes", len(b))
	}
	if got := resp.Header.Get("X-Sage-Shards-Pruned"); got != strconv.Itoa(c.NumShards()) {
		t.Fatalf("X-Sage-Shards-Pruned = %q, want %d", got, c.NumShards())
	}
	if got := resp.Header.Get("X-Sage-Shards-Scanned"); got != "0" {
		t.Fatalf("X-Sage-Shards-Scanned = %q, want 0", got)
	}
	st := s.Stats()
	if st.Decodes != 0 {
		t.Fatalf("pruned-only query cost %d decodes, want 0", st.Decodes)
	}
	if st.ShardsPruned != int64(c.NumShards()) || st.ShardsScanned != 0 || st.QueryReqs != 1 {
		t.Fatalf("stats after pruned query: %+v", st)
	}

	// A k-mer probe from a real record: the response is FASTQ holding
	// exactly the records a full scan matches, in shard order.
	pred := &shard.Predicate{Subseq: dec.Records[0].Seq[:24].Clone()}
	var want bytes.Buffer
	wantMatched := 0
	for i := range dec.Records {
		if pred.MatchRecord(&dec.Records[i]) {
			wantMatched++
			(&fastq.ReadSet{Records: dec.Records[i : i+1]}).Write(&want)
		}
	}
	if wantMatched == 0 {
		t.Fatal("probe matches nothing; pick a different record")
	}
	resp = do(t, ts.URL+"/c/"+defaultName+"/query?kmer="+pred.Subseq.String(), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("kmer query: status %d", resp.StatusCode)
	}
	got := body(t, resp)
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("kmer query returned %d bytes, full scan says %d", len(got), want.Len())
	}
	total, _ := strconv.Atoi(resp.Header.Get("X-Sage-Shards-Total"))
	pruned, _ := strconv.Atoi(resp.Header.Get("X-Sage-Shards-Pruned"))
	scanned, _ := strconv.Atoi(resp.Header.Get("X-Sage-Shards-Scanned"))
	if total != c.NumShards() || pruned+scanned != total || scanned == 0 {
		t.Fatalf("plan headers: total=%d pruned=%d scanned=%d", total, pruned, scanned)
	}
	if st := s.Stats(); st.QueryMatched != int64(wantMatched) {
		t.Fatalf("query_reads_matched = %d, want %d", st.QueryMatched, wantMatched)
	}

	// count=1 answers the same plan as a JSON summary, no bodies.
	resp = do(t, ts.URL+"/c/default/query?kmer="+pred.Subseq.String()+"&count=1", nil)
	var sum querySummary
	if err := json.Unmarshal(body(t, resp), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.ReadsMatched != wantMatched || sum.ShardsPruned != pruned || sum.ShardsScanned != scanned {
		t.Fatalf("count summary = %+v, want %d matched, %d pruned", sum, wantMatched, pruned)
	}
	if !sum.ZoneMaps || sum.ShardsTotal != total {
		t.Fatalf("count summary = %+v", sum)
	}

	// No predicate at all: the whole container streams back.
	resp = do(t, ts.URL+"/c/default/query", nil)
	all := body(t, resp)
	if !bytes.Equal(all, dec.Bytes()) {
		t.Fatalf("bare /query returned %d bytes, full decode is %d", len(all), len(dec.Bytes()))
	}
	if st := s.Stats(); st.ServerErrors != 0 || st.ClientErrors != 0 {
		t.Fatalf("errors after query flow: %+v", st)
	}
}

// TestQueryParamValidation pins the strict parse: typo'd keys,
// non-canonical numbers, and inverted bands answer 400 instead of
// silently streaming the whole container.
func TestQueryParamValidation(t *testing.T) {
	data, _, _ := testContainer(t, 100, 50)
	s, ts := newTestServer(t, data, Config{})
	bad := []string{
		"min-avgphre=10",      // typo'd key
		"min-len=abc",         // not a number
		"min-len=+1",          // non-canonical
		"min-len=01",          // non-canonical
		"min-len=-3",          // negative
		"max-ee=-0.5",         // negative
		"kmer=XYZ",            // not a DNA sequence
		"kmer=",               // empty probe
		"count=2",             // not a boolean
		"min-len=5&min-len=6", // repeated key
		"min-len=9&max-len=3", // inverted band
		"min-gc=0.9&max-gc=0.1",
	}
	for _, q := range bad {
		resp := do(t, ts.URL+"/c/default/query?"+q, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("/c/default/query?%s: status %d, want 400", q, resp.StatusCode)
		}
	}
	st := s.Stats()
	if st.ClientErrors != int64(len(bad)) || st.QueryReqs != 0 {
		t.Fatalf("client_errors=%d query_requests=%d, want %d/0", st.ClientErrors, st.QueryReqs, len(bad))
	}
	if st.Decodes != 0 {
		t.Fatalf("rejected queries decoded %d shards", st.Decodes)
	}
}

// TestQueryUsesCache pins that /query decodes go through the shared
// cache: a second identical query over a warm cache decodes nothing.
func TestQueryUsesCache(t *testing.T) {
	data, _, _ := testContainer(t, 200, 50)
	s, ts := newTestServer(t, data, Config{})
	first := body(t, do(t, ts.URL+"/c/default/query?min-len=1", nil))
	d0 := s.Stats().Decodes
	if d0 == 0 {
		t.Fatal("first query decoded nothing")
	}
	second := body(t, do(t, ts.URL+"/c/default/query?min-len=1", nil))
	if !bytes.Equal(first, second) {
		t.Fatal("warm query answered differently")
	}
	if d1 := s.Stats().Decodes; d1 != d0 {
		t.Fatalf("warm query decoded %d more shards", d1-d0)
	}
}

// TestIndexZoneJSON checks /shards exposes the v4 zone maps so clients
// can plan pruning themselves.
func TestIndexZoneJSON(t *testing.T) {
	data, _, _ := testContainer(t, 200, 50)
	_, ts := newTestServer(t, data, Config{})
	var l indexListing
	if err := json.Unmarshal(body(t, do(t, ts.URL+"/c/default/shards", nil)), &l); err != nil {
		t.Fatal(err)
	}
	if len(l.Index) == 0 {
		t.Fatal("empty index listing")
	}
	for _, ent := range l.Index {
		z := ent.Zone
		if z == nil {
			t.Fatalf("shard %d: no zone map in a v4 listing", ent.Shard)
		}
		if z.MinLen <= 0 || z.MaxLen < z.MinLen {
			t.Fatalf("shard %d: length envelope [%d,%d]", ent.Shard, z.MinLen, z.MaxLen)
		}
		if z.QualReads != ent.Reads {
			t.Fatalf("shard %d: %d scored of %d reads (simulated reads all carry scores)", ent.Shard, z.QualReads, ent.Reads)
		}
		if z.MinAvgPhred > z.MaxAvgPhred || z.MinGC > z.MaxGC {
			t.Fatalf("shard %d: inverted envelopes %+v", ent.Shard, z)
		}
		if z.SketchFill <= 0 || z.SketchFill >= 1 {
			t.Fatalf("shard %d: sketch fill %v", ent.Shard, z.SketchFill)
		}
	}
}

// discardWriter is a response writer that counts the body bytes and
// keeps none.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header  { return w.h }
func (w *discardWriter) WriteHeader(code int) { w.status = code }
func (w *discardWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// TestQueryAllocsPerByte: a warm /query walks the cached text and
// writes each match straight out of it, so what a request allocates is
// its handler's fixed cost, not a cost per record — under one byte per
// FASTQ byte streamed, over the 2 000-read fixture that every record
// matches.
func TestQueryAllocsPerByte(t *testing.T) {
	data, rs, _ := testContainer(t, 2000, 250)
	s, _ := newTestServer(t, data, Config{})
	serve := func() *discardWriter {
		w := &discardWriter{h: http.Header{}, status: http.StatusOK}
		s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/c/default/query?min-len=1", nil))
		return w
	}
	if w := serve(); w.status != http.StatusOK || w.n != rs.UncompressedSize() {
		t.Fatalf("cold query: status %d, %d bytes, want %d", w.status, w.n, rs.UncompressedSize())
	}
	decodes := s.Stats().Decodes
	const passes = 5
	streamed := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range passes {
		streamed += serve().n
	}
	runtime.ReadMemStats(&after)
	if got := s.Stats().Decodes; got != decodes {
		t.Fatalf("warm queries decoded %d shards", got-decodes)
	}
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(streamed)
	t.Logf("warm /query: %.4f bytes allocated per FASTQ byte streamed (%d bytes a pass)", perByte, streamed/passes)
	if perByte >= 1 {
		t.Fatalf("warm /query allocated %.2f bytes per FASTQ byte streamed, want under 1", perByte)
	}
}
