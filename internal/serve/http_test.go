package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"sync"
	"testing"

	"sage/internal/fastq"
	"sage/internal/genome"
	"sage/internal/shard"
	"sage/internal/simulate"
)

// newRegistryServer stands up one server hosting every given container
// under its name.
func newRegistryServer(t testing.TB, cfg Config, containers ...Named) (*Server, *httptest.Server) {
	t.Helper()
	s, err := NewMulti(containers, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// openContainer opens container bytes lazily, as the serving path does.
func openContainer(t testing.TB, data []byte) *shard.Container {
	t.Helper()
	c, err := shard.Open(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// do performs a GET with extra headers and returns the full response.
func do(t testing.TB, url string, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func body(t testing.TB, resp *http.Response) []byte {
	t.Helper()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRegistryRoutes checks one server hosts two containers: the
// /containers listing, per-container routing, 404 for unknown names,
// and 404 for the pre-registry single-container paths.
func TestRegistryRoutes(t *testing.T) {
	dataA, rsA, _ := testContainer(t, 200, 50) // 4 shards
	dataB, _ := manifestContainer(t, 180, 60, false)
	s, ts := newRegistryServer(t, Config{},
		Named{Name: "runA", C: openContainer(t, dataA)},
		Named{Name: "runB", C: openContainer(t, dataB)})

	resp := do(t, ts.URL+"/containers", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/containers: status %d", resp.StatusCode)
	}
	var cl containersListing
	if err := json.Unmarshal(body(t, resp), &cl); err != nil {
		t.Fatal(err)
	}
	if len(cl.Containers) != 2 || cl.Containers[0].Name != "runA" || cl.Containers[1].Name != "runB" {
		t.Fatalf("/containers = %+v", cl)
	}
	if cl.Containers[1].Files != 2 {
		t.Fatalf("runB files = %d, want 2 (manifest container)", cl.Containers[1].Files)
	}

	// Each container's index is served under its own name.
	for name, wantReads := range map[string]int{"runA": 200, "runB": 180} {
		resp := do(t, ts.URL+"/c/"+name+"/shards", nil)
		var l indexListing
		if err := json.Unmarshal(body(t, resp), &l); err != nil {
			t.Fatal(err)
		}
		if l.Container != name || l.Reads != wantReads {
			t.Fatalf("/c/%s/shards = container %q, %d reads (want %d)", name, l.Container, l.Reads, wantReads)
		}
	}

	// The registry route serves the named container's shard.
	named := body(t, do(t, ts.URL+"/c/runA/shard/1/reads", nil))
	got, err := fastq.Parse(bytes.NewReader(named))
	if err != nil {
		t.Fatal(err)
	}
	if !fastq.Equivalent(&fastq.ReadSet{Records: rsA.Records[50:100]}, got) {
		t.Fatal("/c/runA/shard/1/reads did not serve runA's shard 1")
	}

	// The pre-registry single-container paths are gone, not aliased.
	for _, path := range []string{"/shards", "/shard/1", "/shard/1/reads", "/files", "/file/lane1.fq/shards", "/query?min-len=1"} {
		if resp := do(t, ts.URL+path, nil); resp.StatusCode != http.StatusNotFound {
			t.Errorf("legacy path %s: status %d, want 404", path, resp.StatusCode)
		}
	}

	// The manifest endpoints route per container too.
	if resp := do(t, ts.URL+"/c/runB/files", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("/c/runB/files: status %d", resp.StatusCode)
	}
	if resp := do(t, ts.URL+"/c/runA/files", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/c/runA/files (manifest-less): status %d, want 404", resp.StatusCode)
	}
	if resp := do(t, ts.URL+"/c/nope/shards", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/c/nope/shards: status %d, want 404", resp.StatusCode)
	}

	st := s.Stats()
	if st.Containers != 2 || st.Shards != 7 || st.Reads != 380 {
		t.Fatalf("stats aggregate = %d containers / %d shards / %d reads", st.Containers, st.Shards, st.Reads)
	}
}

// TestNewMultiValidation checks registration fails fast on bad input.
func TestNewMultiValidation(t *testing.T) {
	data, _, _ := testContainer(t, 100, 50)
	c := openContainer(t, data)
	if _, err := NewMulti(nil, Config{}); err == nil {
		t.Fatal("empty registry accepted")
	}
	// "." and ".." are unroutable: ServeMux path-cleaning folds
	// /c/../shards into /shards before matching.
	for _, name := range []string{"", ".", "..", "a/b", "a?b", "a#b", "a%b"} {
		if _, err := NewMulti([]Named{{Name: name, C: c}}, Config{}); err == nil {
			t.Fatalf("unroutable name %q accepted", name)
		}
	}
	if _, err := NewMulti([]Named{{Name: "x", C: c}, {Name: "x", C: c}}, Config{}); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

// TestETagStableAcrossRestarts pins that the ETag comes from the
// container's index, not server state: two independent server processes
// over the same container emit identical tags, so a client can
// re-validate across a restart.
func TestETagStableAcrossRestarts(t *testing.T) {
	data, _, _ := testContainer(t, 200, 50)
	tags := make([][]string, 2)
	for run := 0; run < 2; run++ {
		_, ts := newTestServer(t, data, Config{})
		for i := 0; i < 4; i++ {
			raw := do(t, fmt.Sprintf("%s/c/default/shard/%d", ts.URL, i), nil)
			reads := do(t, fmt.Sprintf("%s/c/default/shard/%d/reads", ts.URL, i), nil)
			rt, dt := raw.Header.Get("ETag"), reads.Header.Get("ETag")
			if rt == "" || dt == "" {
				t.Fatalf("run %d shard %d: missing ETag (raw %q, reads %q)", run, i, rt, dt)
			}
			if rt == dt {
				t.Fatalf("shard %d: raw and decoded representations share ETag %q", i, rt)
			}
			tags[run] = append(tags[run], rt, dt)
		}
		ts.Close()
	}
	for i := range tags[0] {
		if tags[0][i] != tags[1][i] {
			t.Fatalf("ETag %d changed across restart: %q vs %q", i, tags[0][i], tags[1][i])
		}
	}
}

// TestReadsETagTracksFallbackConsensus pins that the decoded-FASTQ
// ETag of a container WITHOUT an embedded consensus depends on the
// server's fallback consensus: restarting with a different -ref must
// not answer 304 for FASTQ that now decodes differently, while the
// same -ref keeps the tag stable.
func TestReadsETagTracksFallbackConsensus(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	refA := genome.Random(rng, 20_000)
	donor, _ := genome.Donor(rng, refA, genome.HumanLikeProfile())
	rs, err := simulate.New(rng, donor).ShortReads(100, simulate.DefaultShortProfile())
	if err != nil {
		t.Fatal(err)
	}
	opt := shard.DefaultOptions(refA)
	opt.ShardReads = 50
	opt.Core.EmbedConsensus = false
	data, _, err := shard.Compress(rs, opt)
	if err != nil {
		t.Fatal(err)
	}
	refB := genome.Random(rng, 20_000)

	tag := func(cons genome.Seq) string {
		_, ts := newTestServer(t, data, Config{Consensus: cons})
		resp := do(t, ts.URL+"/c/default/shard/0/reads", nil)
		etag := resp.Header.Get("ETag")
		if etag == "" {
			t.Fatal("missing ETag")
		}
		return etag
	}
	sameRef, sameRefAgain, otherRef := tag(refA), tag(refA), tag(refB)
	if sameRef != sameRefAgain {
		t.Fatalf("same fallback consensus changed the tag: %q vs %q", sameRef, sameRefAgain)
	}
	if sameRef == otherRef {
		t.Fatalf("different fallback consensus kept tag %q — a client would 304 onto wrong FASTQ", sameRef)
	}

	// An embedded consensus makes the tag independent of the fallback.
	opt.Core.EmbedConsensus = true
	embedded, _, err := shard.Compress(rs, opt)
	if err != nil {
		t.Fatal(err)
	}
	etag := func(data []byte, cfg Config) string {
		_, ts := newTestServer(t, data, cfg)
		return do(t, ts.URL+"/c/default/shard/0/reads", nil).Header.Get("ETag")
	}
	if a, b := etag(embedded, Config{}), etag(embedded, Config{Consensus: refB}); a != b {
		t.Fatalf("embedded-consensus tag varies with the fallback: %q vs %q", a, b)
	}
}

// TestIfNoneMatch304 checks conditional revalidation: a matching
// If-None-Match answers 304 with an empty body, costs no decode, and is
// counted; a stale tag gets the full entity.
func TestIfNoneMatch304(t *testing.T) {
	data, _, _ := testContainer(t, 200, 50)
	s, ts := newTestServer(t, data, Config{})

	first := do(t, ts.URL+"/c/default/shard/0", nil)
	tag := first.Header.Get("ETag")
	full := body(t, first)
	if len(full) == 0 {
		t.Fatal("empty raw block")
	}

	for _, cond := range []string{tag, "*", `"bogus", ` + tag, "W/" + tag} {
		resp := do(t, ts.URL+"/c/default/shard/0", map[string]string{"If-None-Match": cond})
		if resp.StatusCode != http.StatusNotModified {
			t.Fatalf("If-None-Match %q: status %d, want 304", cond, resp.StatusCode)
		}
		if b := body(t, resp); len(b) != 0 {
			t.Fatalf("304 carried a %d-byte body", len(b))
		}
		if got := resp.Header.Get("ETag"); got != tag {
			t.Fatalf("304 ETag = %q, want %q", got, tag)
		}
	}
	// A stale validator gets the bytes.
	resp := do(t, ts.URL+"/c/default/shard/0", map[string]string{"If-None-Match": `"0badc0de"`})
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body(t, resp), full) {
		t.Fatalf("stale If-None-Match: status %d", resp.StatusCode)
	}

	// The decoded endpoint revalidates without decoding anything.
	readsResp := do(t, ts.URL+"/c/default/shard/3/reads", map[string]string{"If-None-Match": "*"})
	if readsResp.StatusCode != http.StatusNotModified {
		t.Fatalf("/reads If-None-Match: status %d, want 304", readsResp.StatusCode)
	}
	st := s.Stats()
	if st.Decodes != 0 {
		t.Fatalf("revalidation cost %d decodes, want 0", st.Decodes)
	}
	if st.NotModified != 5 {
		t.Fatalf("not_modified = %d, want 5", st.NotModified)
	}
	if st.Errors != 0 {
		t.Fatalf("errors = %d", st.Errors)
	}
}

// TestRangeRequests checks resumable raw-block fetches: valid single
// ranges answer 206 with the exact slice, malformed and unsatisfiable
// ranges answer 416 with the entity size, and range forms the server
// does not serve (other units, multipart) fall back to the whole block.
func TestRangeRequests(t *testing.T) {
	data, _, _ := testContainer(t, 200, 50)
	s, ts := newTestServer(t, data, Config{})
	full := body(t, do(t, ts.URL+"/c/default/shard/0", nil))
	size := len(full)
	if size < 40 {
		t.Fatalf("block too small to slice: %d bytes", size)
	}

	cases := []struct {
		spec     string
		from, to int // inclusive window of full
	}{
		{"bytes=0-9", 0, 9},
		{"bytes=10-19", 10, 19},
		{fmt.Sprintf("bytes=%d-", size-7), size - 7, size - 1}, // open end
		{"bytes=-5", size - 5, size - 1},                       // suffix
		{fmt.Sprintf("bytes=5-%d", size+100), 5, size - 1},     // end clamped
	}
	for _, c := range cases {
		resp := do(t, ts.URL+"/c/default/shard/0", map[string]string{"Range": c.spec})
		got := body(t, resp)
		want := full[c.from : c.to+1]
		if resp.StatusCode != http.StatusPartialContent {
			t.Fatalf("Range %q: status %d, want 206", c.spec, resp.StatusCode)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Range %q: got %d bytes, want full[%d:%d]", c.spec, len(got), c.from, c.to+1)
		}
		wantCR := fmt.Sprintf("bytes %d-%d/%d", c.from, c.to, size)
		if cr := resp.Header.Get("Content-Range"); cr != wantCR {
			t.Fatalf("Range %q: Content-Range %q, want %q", c.spec, cr, wantCR)
		}
		if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(want)) {
			t.Fatalf("Range %q: Content-Length %q, want %d", c.spec, cl, len(want))
		}
	}

	// Two ranges fetched back to back reassemble the block — resumption.
	head := body(t, do(t, ts.URL+"/c/default/shard/0", map[string]string{"Range": fmt.Sprintf("bytes=0-%d", size/2)}))
	tail := body(t, do(t, ts.URL+"/c/default/shard/0", map[string]string{"Range": fmt.Sprintf("bytes=%d-", size/2+1)}))
	if !bytes.Equal(append(head, tail...), full) {
		t.Fatal("resumed halves do not reassemble the block")
	}

	// Malformed or unsatisfiable → 416 with the entity size.
	for _, spec := range []string{
		"bytes=abc-def",
		"bytes=-",
		"bytes=9-3",
		"bytes=-0",
		fmt.Sprintf("bytes=%d-", size), // starts past the end
		"bytes=999999999-",
	} {
		resp := do(t, ts.URL+"/c/default/shard/0", map[string]string{"Range": spec})
		if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
			t.Fatalf("Range %q: status %d, want 416", spec, resp.StatusCode)
		}
		if cr := resp.Header.Get("Content-Range"); cr != fmt.Sprintf("bytes */%d", size) {
			t.Fatalf("Range %q: Content-Range %q", spec, cr)
		}
	}

	// Units we don't serve and multipart ranges fall back to the whole
	// entity, as RFC 9110 allows.
	for _, spec := range []string{"items=0-3", "bytes=0-3,10-12"} {
		resp := do(t, ts.URL+"/c/default/shard/0", map[string]string{"Range": spec})
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body(t, resp), full) {
			t.Fatalf("Range %q: status %d, want whole entity", spec, resp.StatusCode)
		}
	}

	if resp := do(t, ts.URL+"/c/default/shard/0", nil); resp.Header.Get("Accept-Ranges") != "bytes" {
		t.Fatal("Accept-Ranges: bytes not advertised")
	}
	st := s.Stats()
	if st.RangeReads != int64(len(cases))+2 {
		t.Fatalf("range_requests = %d, want %d", st.RangeReads, len(cases)+2)
	}
	if st.ClientErrors != 6 || st.ServerErrors != 0 {
		t.Fatalf("client/server errors = %d/%d, want 6/0", st.ClientErrors, st.ServerErrors)
	}
}

// TestSingleflightAcrossContainers is the registry's dedup-correctness
// race: concurrent cold fetches of the SAME shard index in DIFFERENT
// containers must not be collapsed into one flight — each container
// decodes its own shard, and every client receives its container's
// bytes.
func TestSingleflightAcrossContainers(t *testing.T) {
	dataA, _, _ := testContainer(t, 200, 50)
	dataB, _, _ := testContainer(t, 240, 60) // different shard layout → different bytes
	s, ts := newRegistryServer(t, Config{Workers: 2},
		Named{Name: "a", C: openContainer(t, dataA)},
		Named{Name: "b", C: openContainer(t, dataB)})

	wantA, err := shard.Parse(dataA)
	if err != nil {
		t.Fatal(err)
	}
	rsA, err := wantA.DecompressShard(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := shard.Parse(dataB)
	if err != nil {
		t.Fatal(err)
	}
	rsB, err := wantB.DecompressShard(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	bytesA, bytesB := rsA.Bytes(), rsB.Bytes()
	if bytes.Equal(bytesA, bytesB) {
		t.Fatal("test needs distinguishable shard 0 bodies")
	}

	const perContainer = 16
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, 2*perContainer)
	for n := 0; n < perContainer; n++ {
		for _, c := range []struct {
			name string
			want []byte
		}{{"a", bytesA}, {"b", bytesB}} {
			wg.Add(1)
			go func(name string, want []byte) {
				defer wg.Done()
				<-start
				resp := do(t, fmt.Sprintf("%s/c/%s/shard/0/reads", ts.URL, name), nil)
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("container %s: status %d", name, resp.StatusCode)
					return
				}
				if got := body(t, resp); !bytes.Equal(got, want) {
					errs <- fmt.Sprintf("container %s: wrong bytes (%d vs %d)", name, len(got), len(want))
				}
			}(c.name, c.want)
		}
	}
	close(start)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	st := s.Stats()
	if st.Decodes != 2 {
		t.Fatalf("decodes = %d, want exactly 2 (one per container, none falsely deduped)", st.Decodes)
	}
	if st.Hits+st.Misses != 2*perContainer {
		t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, 2*perContainer)
	}
	// Each container's own ETag revalidates as a bodyless 304 without a
	// decode.
	for _, name := range []string{"a", "b"} {
		url := fmt.Sprintf("%s/c/%s/shard/0/reads", ts.URL, name)
		tag := do(t, url, nil).Header.Get("ETag")
		resp := do(t, url, map[string]string{"If-None-Match": tag})
		if resp.StatusCode != http.StatusNotModified || len(body(t, resp)) != 0 {
			t.Fatalf("container %s: revalidation status %d, want a bodyless 304", name, resp.StatusCode)
		}
	}
	if st := s.Stats(); st.Decodes != 2 || st.NotModified != 2 || st.Errors != 0 {
		t.Fatalf("after revalidation: decodes %d, not_modified %d, errors %d; want 2, 2, 0", st.Decodes, st.NotModified, st.Errors)
	}
}

// TestOversizedShardStreams pins the streaming decode path: a shard
// whose decoded text exceeds the whole cache budget is served correctly
// with an exact Content-Length, is never cached, and the cache stays
// empty — serving memory stays bounded by the budget plus in-flight
// decodes, not by shard text copies.
func TestOversizedShardStreams(t *testing.T) {
	data, rs, _ := testContainer(t, 200, 100)               // 2 shards
	s, ts := newTestServer(t, data, Config{CacheBytes: 64}) // far below any decoded shard

	resp := do(t, ts.URL+"/c/default/shard/0/reads", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	got := body(t, resp)
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(got)) {
		t.Fatalf("Content-Length %s, body %d bytes", cl, len(got))
	}
	parsed, err := fastq.Parse(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	if !fastq.Equivalent(&fastq.ReadSet{Records: rs.Records[:100]}, parsed) {
		t.Fatal("streamed shard is not equivalent to its source batch")
	}

	// Nothing was cached; a repeat fetch decodes again.
	body(t, do(t, ts.URL+"/c/default/shard/0/reads", nil))
	st := s.Stats()
	if st.CacheEntries != 0 || st.CacheBytes != 0 {
		t.Fatalf("oversized shard was cached: %d entries / %d bytes", st.CacheEntries, st.CacheBytes)
	}
	if st.Decodes != 2 || st.Hits != 0 {
		t.Fatalf("decodes = %d, hits = %d; want 2 decodes, 0 hits", st.Decodes, st.Hits)
	}
	// But revalidation still avoids the decode entirely.
	if resp := do(t, ts.URL+"/c/default/shard/0/reads", map[string]string{"If-None-Match": "*"}); resp.StatusCode != http.StatusNotModified {
		t.Fatalf("oversized shard revalidation: status %d", resp.StatusCode)
	}
	if st := s.Stats(); st.Decodes != 2 {
		t.Fatalf("revalidation decoded: %d", st.Decodes)
	}
}

// TestContentLengthEverywhere checks the shard endpoints always declare
// the exact body size (clients sizing resumable fetches rely on it).
func TestContentLengthEverywhere(t *testing.T) {
	data, _, _ := testContainer(t, 200, 50)
	_, ts := newTestServer(t, data, Config{})
	for _, path := range []string{"/c/default/shard/2", "/c/default/shard/2/reads"} {
		resp := do(t, ts.URL+path, nil)
		b := body(t, resp)
		if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(b)) {
			t.Fatalf("%s: Content-Length %q for a %d-byte body", path, cl, len(b))
		}
		// And the warm (cached) pass agrees.
		resp = do(t, ts.URL+path, nil)
		if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(b)) {
			t.Fatalf("%s warm: Content-Length %q for a %d-byte body", path, cl, len(b))
		}
	}
}

// TestClientVsServerErrorCounters pins the stats split: client mistakes
// land in client_errors, data damage in server_errors, and the legacy
// combined counter stays their sum.
func TestClientVsServerErrorCounters(t *testing.T) {
	data, _, _ := testContainer(t, 100, 50)
	s, ts := newTestServer(t, data, Config{})
	for _, path := range []string{"/c/default/shard/99", "/c/default/shard/abc", "/c/nope/shards", "/c/default/file/x/shards"} {
		do(t, ts.URL+path, nil)
	}
	st := s.Stats()
	if st.ClientErrors != 4 || st.ServerErrors != 0 {
		t.Fatalf("after client mistakes: client=%d server=%d", st.ClientErrors, st.ServerErrors)
	}
	if st.Errors != st.ClientErrors+st.ServerErrors {
		t.Fatalf("errors = %d, want sum %d", st.Errors, st.ClientErrors+st.ServerErrors)
	}
}

// TestStreamingReadsUnderRace hammers the oversized-streaming and
// cached paths together; meaningful mostly under -race.
func TestStreamingReadsUnderRace(t *testing.T) {
	data, _, _ := testContainer(t, 400, 50) // 8 shards
	ref, err := shard.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	rs0, err := ref.DecompressShard(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Budget fits roughly one decoded shard: some shards cache, the
	// request mix keeps evicting, and oversized handling never trips.
	_, ts := newTestServer(t, data, Config{CacheBytes: int64(rs0.UncompressedSize()), Workers: 2})
	var wg sync.WaitGroup
	for n := 0; n < 8; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				i := (n + k) % 8
				resp := do(t, fmt.Sprintf("%s/c/default/shard/%d/reads", ts.URL, i), nil)
				b := body(t, resp)
				if resp.StatusCode != http.StatusOK || len(b) == 0 {
					t.Errorf("shard %d: status %d, %d bytes", i, resp.StatusCode, len(b))
					return
				}
			}
		}(n)
	}
	wg.Wait()
}

// TestETagMatchQuoting drives etagMatch over RFC 9110 entity-tag lists:
// quoted tags containing commas, weak validators, the "*" wildcard (a
// whole-header form, not a list member), and stray separators.
func TestETagMatchQuoting(t *testing.T) {
	const tag = `"deadbeef"`
	cases := []struct {
		header string
		want   bool
	}{
		{"", false},
		{`"deadbeef"`, true},
		{`W/"deadbeef"`, true}, // weak compare ignores W/
		{"*", true},
		{"  *  ", true},
		{`"other", "deadbeef"`, true},
		{`"other","deadbeef"`, true},
		{`"other", W/"deadbeef"`, true},
		{`"other"`, false},
		{`"deadbeef-fq"`, false}, // different representation's tag
		// A comma INSIDE a quoted tag is part of that tag, not a list
		// separator; a naive split would shred "a,deadbeef" into a
		// fragment ending in `deadbeef"` that never matches — but it must
		// also never FALSELY match a real tag.
		{`"a,deadbeef"`, false},
		{`"x,y", "deadbeef"`, true},
		{`"dead,beef", "nope"`, false},
		{`W/"x,y", W/"deadbeef"`, true},
		// "*" only counts as the whole header, not as a list member.
		{`"other", *`, false},
		// Stray commas are dropped, not matched as empty tags.
		{`, "deadbeef",`, true},
		{",,", false},
		// An unquoted legacy value still matches by exact comparison
		// against itself only.
		{"deadbeef", false},
	}
	for _, c := range cases {
		if got := etagMatch(c.header, tag); got != c.want {
			t.Errorf("etagMatch(%q, %q) = %v, want %v", c.header, tag, got, c.want)
		}
	}
	// A tag containing a comma is matched intact from a list.
	commaTag := `"dead,beef"`
	if !etagMatch(`"x", "dead,beef"`, commaTag) {
		t.Error("comma-containing tag did not match from a list")
	}
	if etagMatch(`"dead", "beef"`, commaTag) {
		t.Error("fragments of a comma-containing tag matched")
	}
}

// TestShardIndexCanonical pins that only the canonical decimal spelling
// addresses a shard: "+1", "01", and "1 " would all Atoi to a valid
// index but must answer 400, so every shard has exactly one URL.
func TestShardIndexCanonical(t *testing.T) {
	data, _, _ := testContainer(t, 100, 50)
	s, ts := newTestServer(t, data, Config{})
	if resp := do(t, ts.URL+"/c/default/shard/1", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("/c/default/shard/1: status %d", resp.StatusCode)
	}
	for _, spelling := range []string{"+1", "01", "1 ", " 1", "0x1", "1e0", "--1", "+0"} {
		resp := do(t, ts.URL+"/c/default/shard/"+url.PathEscape(spelling), nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("/c/default/shard/%q: status %d, want 400", spelling, resp.StatusCode)
		}
		resp = do(t, ts.URL+"/c/default/shard/"+url.PathEscape(spelling)+"/reads", nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("/c/default/shard/%q/reads: status %d, want 400", spelling, resp.StatusCode)
		}
	}
	// "-1" is canonical for the integer -1, so it falls to the range
	// check — a 404, not a 400.
	if resp := do(t, ts.URL+"/c/default/shard/-1", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("/c/default/shard/-1: status %d, want 404", resp.StatusCode)
	}
	if st := s.Stats(); st.ServerErrors != 0 {
		t.Fatalf("server_errors = %d", st.ServerErrors)
	}
}
