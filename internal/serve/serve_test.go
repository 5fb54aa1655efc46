package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sage/internal/fastq"
	"sage/internal/genome"
	"sage/internal/shard"
	"sage/internal/simulate"
)

// testContainer simulates a read set and compresses it into a sharded
// container, returning the container bytes, the source reads, and the
// reference.
func testContainer(t testing.TB, nReads, shardReads int) ([]byte, *fastq.ReadSet, genome.Seq) {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	ref := genome.Random(rng, 20_000)
	donor, _ := genome.Donor(rng, ref, genome.HumanLikeProfile())
	rs, err := simulate.New(rng, donor).ShortReads(nReads, simulate.DefaultShortProfile())
	if err != nil {
		t.Fatal(err)
	}
	opt := shard.DefaultOptions(ref)
	opt.ShardReads = shardReads
	data, _, err := shard.Compress(rs, opt)
	if err != nil {
		t.Fatal(err)
	}
	return data, rs, ref
}

// defaultName is the name newServer registers its container under.
const defaultName = "default"

// newServer serves the single container c, registered under
// defaultName.
func newServer(c *shard.Container, cfg Config) (*Server, error) {
	return NewMulti([]Named{{Name: defaultName, C: c}}, cfg)
}

// newTestServer opens data lazily (the serving path) and starts an HTTP
// server over it.
func newTestServer(t testing.TB, data []byte, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	c, err := shard.Open(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	s, err := newServer(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t testing.TB, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestEndpoints(t *testing.T) {
	data, rs, _ := testContainer(t, 200, 50)
	_, ts := newTestServer(t, data, Config{})

	// /shards lists the full index.
	code, body := get(t, ts.URL+"/c/default/shards")
	if code != http.StatusOK {
		t.Fatalf("/c/default/shards: status %d: %s", code, body)
	}
	var listing indexListing
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatalf("/c/default/shards: %v\n%s", err, body)
	}
	if listing.Shards != 4 || listing.Reads != 200 || len(listing.Index) != 4 {
		t.Fatalf("/c/default/shards: got %+v", listing)
	}

	// /shard/{i} returns the exact raw block.
	c, err := shard.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.NumShards(); i++ {
		want, err := c.Block(i)
		if err != nil {
			t.Fatal(err)
		}
		code, got := get(t, fmt.Sprintf("%s/c/default/shard/%d", ts.URL, i))
		if code != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("/c/default/shard/%d: status %d, %d bytes (want %d)", i, code, len(got), len(want))
		}
	}

	// /shard/{i}/reads returns the decoded FASTQ; all shards together
	// reconstruct the source read set.
	var all []byte
	for i := 0; i < c.NumShards(); i++ {
		code, got := get(t, fmt.Sprintf("%s/c/default/shard/%d/reads", ts.URL, i))
		if code != http.StatusOK {
			t.Fatalf("/c/default/shard/%d/reads: status %d: %s", i, code, got)
		}
		all = append(all, got...)
	}
	got, err := fastq.Parse(bytes.NewReader(all))
	if err != nil {
		t.Fatal(err)
	}
	if !fastq.Equivalent(rs, got) {
		t.Fatal("concatenated served shards are not equivalent to the source reads")
	}

	// /stats reflects the traffic.
	code, body = get(t, ts.URL+"/stats")
	if code != http.StatusOK {
		t.Fatalf("/stats: status %d", code)
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.IndexReads != 1 || st.BlockReads != 4 || st.ReadReqs != 4 || st.Decodes != 4 {
		t.Fatalf("/stats: %+v", st)
	}
	if st.CacheBytes <= 0 || st.CacheBytes > st.CacheBudget {
		t.Fatalf("/stats: cache %d bytes of %d budget", st.CacheBytes, st.CacheBudget)
	}
}

func TestHTTPErrors(t *testing.T) {
	data, _, _ := testContainer(t, 100, 50)
	_, ts := newTestServer(t, data, Config{})
	cases := []struct {
		path string
		want int
	}{
		{"/c/default/shard/2", http.StatusNotFound},       // out of range
		{"/c/default/shard/-1", http.StatusNotFound},      // out of range
		{"/c/default/shard/2/reads", http.StatusNotFound}, // out of range
		{"/c/default/shard/abc", http.StatusBadRequest},   // not an integer
		{"/c/default/shard/abc/reads", http.StatusBadRequest},
		{"/nope", http.StatusNotFound},
	}
	for _, c := range cases {
		code, body := get(t, ts.URL+c.path)
		if code != c.want {
			t.Errorf("GET %s: status %d (want %d): %s", c.path, code, c.want, body)
		}
	}
	// Mutating methods are rejected by the route patterns.
	resp, err := http.Post(ts.URL+"/c/default/shard/0", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /shard/0: status %d, want 405", resp.StatusCode)
	}
}

// TestCorruptionThroughServer serves a container file with a flipped
// block byte: both the raw and decoded endpoints must answer the damaged
// shard with a clean 500 mentioning the checksum, while healthy shards
// keep serving.
func TestCorruptionThroughServer(t *testing.T) {
	data, _, _ := testContainer(t, 200, 50)
	c0, err := shard.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the middle of shard 2's block.
	corrupt := append([]byte(nil), data...)
	hdr := int64(len(data)) - c0.Index.BlockBytes()
	e := c0.Index.Entries[2]
	corrupt[hdr+e.Offset+e.Length/2] ^= 0xFF

	path := filepath.Join(t.TempDir(), "corrupt.sags")
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	c, f, err := shard.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := newServer(c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	for _, path := range []string{"/c/default/shard/2", "/c/default/shard/2/reads"} {
		code, body := get(t, ts.URL+path)
		if code != http.StatusInternalServerError || !strings.Contains(string(body), "checksum") {
			t.Fatalf("GET %s on corrupt shard: status %d: %s", path, code, body)
		}
	}
	// The damage is contained: every other shard still serves.
	for _, i := range []int{0, 1, 3} {
		if code, body := get(t, fmt.Sprintf("%s/c/default/shard/%d/reads", ts.URL, i)); code != http.StatusOK {
			t.Fatalf("healthy shard %d: status %d: %s", i, code, body)
		}
	}
	if st := s.Stats(); st.Errors != 2 {
		t.Fatalf("stats count %d errors, want 2", st.Errors)
	}
}

// TestSingleflightColdShard is the ISSUE's acceptance race test: N
// concurrent clients requesting the same cold shard must all receive
// byte-identical decoded output from exactly one decode.
func TestSingleflightColdShard(t *testing.T) {
	data, rs, _ := testContainer(t, 400, 100)
	s, ts := newTestServer(t, data, Config{Workers: 2})

	// The codec may reorder reads within a shard, so the reference
	// bytes come from an independent decode of the same container.
	ref, err := shard.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	refRS, err := ref.DecompressShard(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := refRS.Bytes()
	if !fastq.Equivalent(&fastq.ReadSet{Records: rs.Records[100:200]}, refRS) {
		t.Fatal("shard 1 is not equivalent to its source batch")
	}

	const clients = 32
	start := make(chan struct{})
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for n := 0; n < clients; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			<-start
			code, body := get(t, ts.URL+"/c/default/shard/1/reads")
			if code != http.StatusOK {
				t.Errorf("client %d: status %d", n, code)
				return
			}
			bodies[n] = body
		}(n)
	}
	close(start)
	wg.Wait()

	for n, b := range bodies {
		if !bytes.Equal(b, want) {
			t.Fatalf("client %d received different bytes (%d vs %d)", n, len(b), len(want))
		}
	}
	st := s.Stats()
	if st.Decodes != 1 {
		t.Fatalf("%d concurrent cold requests cost %d decodes, want exactly 1", clients, st.Decodes)
	}
	if st.Hits+st.Misses != clients {
		t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, clients)
	}
	// Every miss either led a flight (at most one of which decoded;
	// late leaders are satisfied by the in-flight re-check of the
	// cache) or joined one.
	if st.Deduped >= st.Misses && st.Misses > 1 {
		t.Fatalf("deduped = %d with %d misses", st.Deduped, st.Misses)
	}
}

// TestCacheBudgetUnderLoad serves a container whose decoded size exceeds
// the cache budget and hammers every shard concurrently: the cache must
// never exceed its byte budget (sampled continuously), must evict, and
// every response must stay correct.
func TestCacheBudgetUnderLoad(t *testing.T) {
	data, _, _ := testContainer(t, 600, 60) // 10 shards
	ref, err := shard.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	var decoded [][]byte
	var total int64
	for i := 0; i < ref.NumShards(); i++ {
		rs, err := ref.DecompressShard(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		d := rs.Bytes()
		decoded = append(decoded, d)
		total += int64(len(d))
	}
	budget := total / 3 // cache can hold ~3 of 10 shards
	s, ts := newTestServer(t, data, Config{CacheBytes: budget})

	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if st := s.Stats(); st.CacheBytes > budget {
				t.Errorf("cache holds %d bytes, budget is %d", st.CacheBytes, budget)
				return
			}
		}
	}()

	const clients = 8
	var wg sync.WaitGroup
	for n := 0; n < clients; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(n)))
			for k := 0; k < 40; k++ {
				i := rng.Intn(len(decoded))
				code, body := get(t, fmt.Sprintf("%s/c/default/shard/%d/reads", ts.URL, i))
				if code != http.StatusOK {
					t.Errorf("shard %d: status %d", i, code)
					return
				}
				if !bytes.Equal(body, decoded[i]) {
					t.Errorf("shard %d: served bytes differ from decode", i)
					return
				}
			}
		}(n)
	}
	wg.Wait()
	close(stop)
	sampler.Wait()

	st := s.Stats()
	if st.CacheBytes > budget {
		t.Fatalf("final cache %d bytes exceeds budget %d", st.CacheBytes, budget)
	}
	if st.Evictions == 0 {
		t.Fatal("a container 3x the cache budget never evicted")
	}
	if st.Hits == 0 {
		t.Fatal("no cache hits across 320 requests over 10 shards")
	}
}

// holdPool takes every decode-pool slot, as decodes in progress would,
// and returns the function that gives them back.
func holdPool(s *Server) (release func()) {
	for i := 0; i < cap(s.sem); i++ {
		s.sem <- struct{}{}
	}
	return func() {
		for i := 0; i < cap(s.sem); i++ {
			<-s.sem
		}
	}
}

// flightWaiters is the number of joiners on key's flight, -1 when no
// flight for key is in the air.
func flightWaiters(s *Server, key shardKey) int {
	s.fl.mu.Lock()
	defer s.fl.mu.Unlock()
	if c, ok := s.fl.m[key]; ok {
		return c.waiters
	}
	return -1
}

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// queueRequest sends a cancellable request for shard i of the default
// container and returns once it leads its flight — with every pool slot
// held, it then waits for a slot. done receives the client's outcome.
func queueRequest(t *testing.T, s *Server, base string, i int) (cancel func(), done <-chan error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/c/%s/shard/%d/reads", base, defaultName, i), nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		out <- err
	}()
	waitFor(t, "the request to queue", func() bool {
		return flightWaiters(s, shardKey{container: defaultName, shard: i}) >= 0
	})
	return cancel, out
}

// TestCancelledDecodeWait: with its one worker busy, a queued request
// that is cancelled gives up its wait promptly and is counted, leaks no
// pool slot, and does not fail a live request that joined its flight —
// that one retries as leader and gets the shard's bytes.
func TestCancelledDecodeWait(t *testing.T) {
	data, _, _ := testContainer(t, 200, 50)
	s, ts := newTestServer(t, data, Config{Workers: 1})
	ref, err := shard.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := ref.DecompressShard(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := rs.Bytes()
	k := shardKey{container: defaultName, shard: 1}

	release := holdPool(s)
	cancel, cancelled := queueRequest(t, s, ts.URL, 1)
	joined := make(chan []byte, 1)
	go func() {
		code, body := 0, []byte(nil)
		resp, err := http.Get(ts.URL + "/c/default/shard/1/reads")
		if err == nil {
			code = resp.StatusCode
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		if err != nil || code != http.StatusOK {
			t.Errorf("live joiner: status %d, err %v", code, err)
		}
		joined <- body
	}()
	waitFor(t, "the second request to join the flight", func() bool { return flightWaiters(s, k) == 1 })

	cancel()
	waitFor(t, "the cancelled wait to be counted", func() bool { return s.Stats().Cancelled == 1 })
	if err := <-cancelled; err == nil {
		t.Fatal("the cancelled request completed")
	}
	// The joiner leads a flight of its own, queued on the held pool.
	waitFor(t, "the joiner to lead", func() bool { return flightWaiters(s, k) == 0 })
	release()
	if got := <-joined; !bytes.Equal(got, want) {
		t.Fatalf("live joiner got %d bytes, want shard 1's %d", len(got), len(want))
	}
	// A later request still finds a free slot.
	if code, _ := get(t, ts.URL+"/c/default/shard/2/reads"); code != http.StatusOK {
		t.Fatalf("request after the cancellation: status %d", code)
	}
	st := s.Stats()
	if n := len(s.sem); n != 0 {
		t.Fatalf("%d pool slots still held after every request finished", n)
	}
	if st.Cancelled != 1 || st.Decodes != 2 || st.ServerErrors != 0 {
		t.Fatalf("cancelled = %d, decodes = %d, server errors = %d; want 1 / 2 / 0", st.Cancelled, st.Decodes, st.ServerErrors)
	}
}
