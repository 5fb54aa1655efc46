// Serving walkthrough: compress two read sets into sharded containers
// on disk, open them lazily (only the indexes are resident), stand up
// ONE internal/serve HTTP daemon hosting both as a registry, and act as
// its clients — listing the containers, walking one container's shard
// index, fetching raw blocks and decoded FASTQ, re-validating with
// If-None-Match for bodyless 304s, resuming a partial block fetch with
// Range, hammering one cold shard from many goroutines to watch
// singleflight collapse the decodes, and sweeping a working set larger
// than the shared cache budget to watch eviction and admission hold the
// byte bound. This is the ROADMAP's hardened serving layer: an archive of
// read sets behind one daemon, shard-granular, revalidation-cheap.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"sage/internal/fastq"
	"sage/internal/genome"
	"sage/internal/serve"
	"sage/internal/shard"
	"sage/internal/simulate"
)

// get fetches url with optional extra headers, returning the response
// (body fully read into resp-independent bytes) and status code.
func get(url string, hdr map[string]string) ([]byte, *http.Response) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		log.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode >= 400 {
		log.Fatalf("GET %s: %s: %s", url, resp.Status, body)
	}
	return body, resp
}

func stats(base string) serve.Stats {
	var st serve.Stats
	body, _ := get(base+"/stats", nil)
	if err := json.Unmarshal(body, &st); err != nil {
		log.Fatal(err)
	}
	return st
}

// simulateContainer compresses a fresh simulated read set into a
// sharded container file, exactly as `sage compress -shard-reads` would.
func simulateContainer(dir string, seed int64, nReads, shardReads int) (string, *fastq.ReadSet) {
	rng := rand.New(rand.NewSource(seed))
	ref := genome.Random(rng, 100_000)
	donor, _ := genome.Donor(rng, ref, genome.HumanLikeProfile())
	reads, err := simulate.New(rng, donor).ShortReads(nReads, simulate.DefaultShortProfile())
	if err != nil {
		log.Fatal(err)
	}
	opt := shard.DefaultOptions(ref)
	opt.ShardReads = shardReads
	data, _, err := shard.Compress(reads, opt)
	if err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("run%d.sage", seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatal(err)
	}
	return path, reads
}

func main() {
	// 1. Two read sets, two container files — an archive, not a file.
	dir, err := os.MkdirTemp("", "sage-serve")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	pathA, readsA := simulateContainer(dir, 1, 4096, 256) // 16 shards
	pathB, _ := simulateContainer(dir, 2, 2048, 256)      // 8 shards

	// 2. Open both lazily and register them under one server — exactly
	// what `sage serve -in run1.sage -in run2.sage` (or `-in dir/`)
	// does. The cache budget is shared and set below the decoded size of
	// run1's working set, so sweeping it must evict.
	var named []serve.Named
	for _, path := range []string{pathA, pathB} {
		c, f, err := shard.OpenFile(path)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		name := filepath.Base(path)
		named = append(named, serve.Named{Name: name[:len(name)-len(".sage")], C: c})
	}
	decodedShard := len(readsA.Bytes()) / 16
	budget := int64(decodedShard * 4) // room for ~4 of 16 decoded shards
	srv, err := serve.NewMulti(named, serve.Config{CacheBytes: budget, Workers: 4})
	if err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	fmt.Printf("one daemon, shared decoded-shard cache budget %d B (~4 shards)\n", budget)

	// 3. A client discovers the archive from /containers.
	var cl struct {
		Containers []struct {
			Name   string `json:"name"`
			Reads  int    `json:"reads"`
			Shards int    `json:"shards"`
		} `json:"containers"`
	}
	body, _ := get(ts.URL+"/containers", nil)
	if err := json.Unmarshal(body, &cl); err != nil {
		log.Fatal(err)
	}
	for _, c := range cl.Containers {
		fmt.Printf("/containers: %s — %d reads in %d shards\n", c.Name, c.Reads, c.Shards)
	}

	// 4. Per-container shard discovery, then raw block vs decoded reads.
	// The raw endpoint moves compressed bytes (for clients with their
	// own decoder — e.g. an in-storage scan unit); /reads decodes
	// server-side.
	base := ts.URL + "/c/" + named[0].Name
	var listing struct {
		Shards int `json:"shards"`
		Index  []struct {
			Reads int   `json:"reads"`
			Bytes int64 `json:"bytes"`
		} `json:"index"`
	}
	body, _ = get(base+"/shards", nil)
	if err := json.Unmarshal(body, &listing); err != nil {
		log.Fatal(err)
	}
	raw, rawResp := get(base+"/shard/5", nil)
	dec, _ := get(base+"/shard/5/reads", nil)
	got, err := fastq.Parse(bytes.NewReader(dec))
	if err != nil {
		log.Fatal(err)
	}
	sub := &fastq.ReadSet{Records: readsA.Records[5*256 : 6*256]}
	if !fastq.Equivalent(sub, got) {
		log.Fatal("served shard 5 is not equivalent to its source batch")
	}
	fmt.Printf("shard 5: %d compressed bytes raw, %d decoded (%.1fx), equivalent to source\n",
		len(raw), len(dec), float64(len(dec))/float64(len(raw)))

	// 5. Conditional requests: the ETag is the shard's index crc32, so
	// it survives server restarts — a client that cached shard 5
	// yesterday re-validates today for a bodyless 304 instead of
	// re-downloading.
	etag := rawResp.Header.Get("ETag")
	condBody, condResp := get(base+"/shard/5", map[string]string{"If-None-Match": etag})
	fmt.Printf("revalidate shard 5 with If-None-Match %s: %d, %d body bytes\n",
		etag, condResp.StatusCode, len(condBody))
	if condResp.StatusCode != http.StatusNotModified || len(condBody) != 0 {
		log.Fatal("expected a bodyless 304")
	}

	// 6. Range requests: resume a block fetch that died halfway.
	half := len(raw) / 2
	head, headResp := get(base+"/shard/5", map[string]string{"Range": fmt.Sprintf("bytes=0-%d", half-1)})
	tail, _ := get(base+"/shard/5", map[string]string{"Range": fmt.Sprintf("bytes=%d-", half)})
	if !bytes.Equal(append(head, tail...), raw) {
		log.Fatal("resumed halves do not reassemble the block")
	}
	fmt.Printf("resumed fetch: %d + %d ranged bytes (%s) reassemble the %d-byte block\n",
		len(head), len(tail), headResp.Header.Get("Content-Range"), len(raw))

	// 7. Singleflight: 24 clients rush the same cold shard of run2; the
	// server decodes once and everyone shares the result. The flight key
	// is {container, shard}, so run1's shard 3 and run2's shard 3 are
	// different flights.
	before := stats(ts.URL)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for n := 0; n < 24; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			get(ts.URL+"/c/"+named[1].Name+"/shard/3/reads", nil)
		}()
	}
	close(start)
	wg.Wait()
	after := stats(ts.URL)
	fmt.Printf("24 clients, 1 cold shard: %d decode(s), %d deduped, %d cache hit(s)\n",
		after.Decodes-before.Decodes, after.Deduped-before.Deduped, after.Hits-before.Hits)

	// 8. Eviction: sweep every shard of run1 twice. 16 decoded shards
	// cannot fit in a 4-shard budget, so the shared cache evicts, or
	// turns away shards read no more often than what they would evict,
	// but never exceeds it.
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < listing.Shards; i++ {
			get(fmt.Sprintf("%s/shard/%d/reads", base, i), nil)
		}
	}
	final := stats(ts.URL)
	fmt.Printf("after sweeping run1 twice: cache %d/%d B in %d entries, %d evictions, %d admission rejects, hit ratio %.2f\n",
		final.CacheBytes, final.CacheBudget, final.CacheEntries, final.Evictions, final.CacheRejected, final.HitRatio)
	if final.CacheBytes > final.CacheBudget {
		log.Fatal("cache exceeded its budget")
	}
	if final.ServerErrors != 0 {
		log.Fatal("server errors counted on healthy data")
	}
	fmt.Println("cache stayed within its byte budget throughout; server_errors = 0")

	// 9. Observability: everything above also landed in per-endpoint
	// latency histograms, exposed at /metrics in Prometheus text format.
	// Scrape it like a monitoring agent would and recover the p99
	// shard-fetch latency from the cumulative buckets.
	expo, metricsResp := get(ts.URL+"/metrics", nil)
	fmt.Printf("/metrics: %d B of %s\n", len(expo), metricsResp.Header.Get("Content-Type"))
	count, p99 := shardReadsP99(string(expo))
	fmt.Printf("shard_reads from the scrape: %d requests, p99 <= %.3gs (from the histogram buckets)\n", count, p99)
	if count == 0 {
		log.Fatal("/metrics recorded no shard_reads requests after the sweeps")
	}
}

// shardReadsP99 parses the exposition text by hand — the point is that
// any scraper can — and returns the shard_reads request count plus the
// upper bound of the bucket holding the 99th percentile.
func shardReadsP99(expo string) (count int64, p99 float64) {
	type bucket struct {
		le string
		n  int64
	}
	var buckets []bucket
	const prefix = `sage_http_request_seconds_bucket{endpoint="shard_reads",le="`
	for _, line := range strings.Split(expo, "\n") {
		if strings.HasPrefix(line, prefix) {
			rest := line[len(prefix):]
			q := strings.Index(rest, `"`)
			var n int64
			fmt.Sscanf(rest[q+2:], "%d", &n)
			buckets = append(buckets, bucket{le: rest[:q], n: n})
		}
	}
	if len(buckets) == 0 {
		return 0, 0
	}
	count = buckets[len(buckets)-1].n // +Inf bucket is cumulative total
	rank := (count*99 + 99) / 100
	for _, b := range buckets {
		if b.n >= rank {
			p99, _ = strconv.ParseFloat(b.le, 64)
			return count, p99
		}
	}
	return count, math.Inf(1)
}
