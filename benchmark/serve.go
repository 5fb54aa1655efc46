package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"sage/internal/serve"
	"sage/internal/shard"
)

// containerName is the registry name the container is served under; requests
// go to /c/{name}/shard/{i}/reads, not to the legacy single-container aliases.
const containerName = "bench"

// shardRef is the reference every response is checked against: length and
// CRC-32 of each shard's decoded FASTQ text, from Container.DecompressShard.
type shardRef struct {
	lens  []int
	crcs  []uint32
	total int64 // decoded bytes over all shards
}

func buildShardRef(c *shard.Container) (*shardRef, error) {
	ref := &shardRef{}
	for i := 0; i < c.NumShards(); i++ {
		rs, err := c.DecompressShard(i, nil)
		if err != nil {
			return nil, fmt.Errorf("reference decode of shard %d: %w", i, err)
		}
		text := rs.Bytes()
		ref.lens = append(ref.lens, len(text))
		ref.crcs = append(ref.crcs, crc32.ChecksumIEEE(text))
		ref.total += int64(len(text))
	}
	return ref, nil
}

// check reports whether body is shard i's text.
func (r *shardRef) check(i int, body []byte) bool {
	return len(body) == r.lens[i] && crc32.ChecksumIEEE(body) == r.crcs[i]
}

// testServer is one serve.Server over the container, behind httptest.
type testServer struct {
	c   *shard.Container
	srv *serve.Server
	ts  *httptest.Server
	tr  *http.Transport
}

// startServer opens the container lazily, registers it with serve.NewMulti
// and puts it behind a loopback HTTP listener. clients sizes the connection
// pool so that every client keeps its connection between requests.
func startServer(container []byte, cacheBytes int64, clients int) (*testServer, error) {
	c, err := shard.Open(bytes.NewReader(container), int64(len(container)))
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewMulti([]serve.Named{{Name: containerName, C: c}}, serve.Config{CacheBytes: cacheBytes})
	if err != nil {
		return nil, err
	}
	return &testServer{
		c:   c,
		srv: srv,
		ts:  httptest.NewServer(srv),
		tr:  &http.Transport{MaxIdleConns: clients, MaxIdleConnsPerHost: clients},
	}, nil
}

func (s *testServer) close() {
	s.tr.CloseIdleConnections()
	s.ts.Close()
}

// onFreshServer starts a server nothing has been requested from yet, lets one
// client do fn against it and shuts it down; the client holds what it measured.
func onFreshServer(container []byte, ref *shardRef, tr *tracer, parent int, fn func(*client)) (*client, error) {
	srv, err := startServer(container, 1<<30, 1)
	if err != nil {
		return nil, err
	}
	defer srv.close()
	c := srv.newClient(ref, tr, parent)
	fn(c)
	return c, nil
}

// client is one closed-loop requester: it sends its next request when the
// previous reply has been read in full.
type client struct {
	s      *testServer
	ref    *shardRef
	tr     *tracer // nil with tracing off
	parent int
	body   bytes.Buffer
	// per-client results
	latencies []float64 // ms, successful requests
	failed    int
}

func (s *testServer) newClient(ref *shardRef, tr *tracer, parent int) *client {
	return &client{s: s, ref: ref, tr: tr, parent: parent}
}

// get fetches shard i's reads, times the request up to the last body byte and
// then checks the body against the reference.
func (c *client) get(i int) {
	url := fmt.Sprintf("%s/c/%s/shard/%d/reads", c.s.ts.URL, containerName, i)
	id := c.tr.begin("http.get", c.parent, i)
	t0 := time.Now()
	ok := c.fetch(url)
	lat := time.Since(t0)
	c.tr.end(id)
	if !ok || !c.ref.check(i, c.body.Bytes()) {
		c.failed++
		return
	}
	c.latencies = append(c.latencies, float64(lat)/1e6)
}

func (c *client) fetch(url string) bool {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return false
	}
	resp, err := c.s.tr.RoundTrip(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	c.body.Reset()
	if _, err := c.body.ReadFrom(resp.Body); err != nil {
		return false
	}
	return resp.StatusCode == http.StatusOK
}

// sweep requests every shard once, in order.
func (c *client) sweep() {
	for i := range c.ref.lens {
		c.get(i)
	}
}

// zipfClients is the steady-phase load: n closed-loop clients, each drawing
// shards Zipf(s = 1.1) from its own generator derived from seed. Ranks map to
// shards through one seeded permutation, so the hot shards are not the first.
type zipfClients struct {
	clients []*client
	draws   []*rand.Zipf
	rank    []int
}

func newZipfClients(s *testServer, ref *shardRef, n int, seed int64, tr *tracer, parent int) *zipfClients {
	z := &zipfClients{rank: rand.New(rand.NewSource(seed)).Perm(len(ref.lens))}
	for k := 0; k < n; k++ {
		rng := rand.New(rand.NewSource(seed + int64(k+1)*7919))
		z.clients = append(z.clients, s.newClient(ref, tr, parent))
		z.draws = append(z.draws, rand.NewZipf(rng, 1.1, 1, uint64(len(ref.lens)-1)))
	}
	return z
}

// run drives every client until the deadline, or until it has sent limit
// requests when limit > 0, and returns the window's wall time. Latencies and
// failures accumulate in the clients; take them with drain.
func (z *zipfClients) run(window time.Duration, limit int) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for k := range z.clients {
		wg.Add(1)
		go func(c *client, draw *rand.Zipf) {
			defer wg.Done()
			for n := 0; ; n++ {
				if limit > 0 && n >= limit {
					return
				}
				if limit <= 0 && time.Since(start) >= window {
					return
				}
				c.get(z.rank[draw.Uint64()])
			}
		}(z.clients[k], z.draws[k])
	}
	wg.Wait()
	return time.Since(start)
}

// drain returns and clears what the clients have recorded since the last call.
func (z *zipfClients) drain() (latencies []float64, failed int) {
	for _, c := range z.clients {
		latencies = append(latencies, c.latencies...)
		failed += c.failed
		c.latencies, c.failed = c.latencies[:0], 0
	}
	return latencies, failed
}
