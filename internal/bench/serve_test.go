package bench

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"sage/internal/genome"
	"sage/internal/serve"
	"sage/internal/shard"
	"sage/internal/simulate"
)

// TestMeasureServeRegistry sweeps a registry of two containers behind
// one server: a cold sweep of every shard's decoded reads via
// /c/{name}/... costs exactly one decode per shard, and a second sweep
// replaying every request with the ETag the cold sweep returned is
// answered entirely by bodyless 304s, without a further decode.
func TestMeasureServeRegistry(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ref := genome.Random(rng, 30_000)
	donor, _ := genome.Donor(rng, ref, genome.HumanLikeProfile())
	rs, err := simulate.New(rng, donor).ShortReads(400, simulate.DefaultShortProfile())
	if err != nil {
		t.Fatal(err)
	}
	opt := shard.DefaultOptions(ref)
	var named []serve.Named
	for i, shardReads := range []int{50, 100} { // 8 + 4 shards
		opt.ShardReads = shardReads
		data, _, err := shard.Compress(rs, opt)
		if err != nil {
			t.Fatal(err)
		}
		c, err := shard.Open(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		named = append(named, serve.Named{Name: fmt.Sprintf("c%d", i), C: c})
	}
	srv, err := serve.NewMulti(named, serve.Config{CacheBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	get := func(url, ifNoneMatch string) (n int64, etag string, code int) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ifNoneMatch != "" {
			req.Header.Set("If-None-Match", ifNoneMatch)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		n, err = io.Copy(io.Discard, resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return n, resp.Header.Get("ETag"), resp.StatusCode
	}

	const shards = 8 + 4
	var urls, etags []string
	for _, nc := range named {
		for i := 0; i < nc.C.NumShards(); i++ {
			urls = append(urls, fmt.Sprintf("%s/c/%s/shard/%d/reads", ts.URL, nc.Name, i))
		}
	}
	if len(urls) != shards {
		t.Fatalf("registry lists %d shards, want %d", len(urls), shards)
	}
	var coldBytes int64
	for _, u := range urls {
		n, etag, code := get(u, "")
		if code != http.StatusOK || etag == "" {
			t.Fatalf("cold GET %s: status %d, ETag %q", u, code, etag)
		}
		coldBytes += n
		etags = append(etags, etag)
	}
	if coldBytes == 0 {
		t.Fatal("cold sweep moved 0 bytes")
	}
	for i, u := range urls {
		if n, _, code := get(u, etags[i]); code != http.StatusNotModified || n != 0 {
			t.Fatalf("revalidating %s: status %d with %d body bytes, want a bodyless 304", u, code, n)
		}
	}

	st := srv.Stats()
	if st.Containers != 2 || st.Shards != shards {
		t.Fatalf("registry hosts %d containers / %d shards, want 2 / %d", st.Containers, st.Shards, shards)
	}
	if st.Decodes != shards {
		t.Fatalf("decodes = %d, want %d (each container decodes its own shards)", st.Decodes, shards)
	}
	if st.NotModified != shards {
		t.Fatalf("not_modified = %d, want %d", st.NotModified, shards)
	}
	if st.Errors != 0 || st.WriteFailures != 0 {
		t.Fatalf("errors = %d, write failures = %d", st.Errors, st.WriteFailures)
	}
}
