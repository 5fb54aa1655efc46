package bench

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"sage/internal/obs"
	"sage/internal/serve"
	"sage/internal/shard"
)

// This file benchmarks the serving layer (internal/serve) the way a
// fleet of analysis clients would see it: real HTTP requests against a
// lazily opened container, measuring how the decoded-shard cache turns
// repeat traffic from decode-bound into memcpy-bound, and how the cache
// behaves when the working set exceeds its byte budget.

// ServeResult holds one measured phase of the serve experiment. Every
// request's latency lands in a per-phase obs histogram, so alongside
// the mean the tail is visible: a warm phase with a flat tail and a
// cold phase whose p999 is a full decode are very different servers
// even at the same mean.
type ServeResult struct {
	Phase    string
	Requests int
	Total    time.Duration
	Mean     time.Duration
	Bytes    int64
	P50      time.Duration
	P90      time.Duration
	P99      time.Duration
	P999     time.Duration
}

// setPercentiles extracts the phase's latency percentiles from h.
func (r *ServeResult) setPercentiles(h *obs.Histogram) {
	r.P50, r.P90, r.P99, r.P999 = h.Percentiles()
}

func (r *ServeResult) mbps() float64 {
	if r.Total <= 0 {
		return 0
	}
	return float64(r.Bytes) / r.Total.Seconds() / 1e6
}

// serveGet fetches a URL and returns the body size, failing on any
// non-200 status.
func serveGet(client *http.Client, url string) (int64, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("bench: GET %s: %s", url, resp.Status)
	}
	return n, nil
}

// sweep requests every shard once in order, returning the phase timing.
func sweep(client *http.Client, base, phase string, shards int) (*ServeResult, error) {
	r := &ServeResult{Phase: phase, Requests: shards}
	hist := obs.NewHistogram(phase)
	start := time.Now()
	for i := 0; i < shards; i++ {
		t0 := time.Now()
		n, err := serveGet(client, fmt.Sprintf("%s/shard/%d/reads", base, i))
		if err != nil {
			return nil, err
		}
		hist.Observe(time.Since(t0))
		r.Bytes += n
	}
	r.Total = time.Since(start)
	r.Mean = r.Total / time.Duration(shards)
	r.setPercentiles(hist)
	return r, nil
}

// MeasureServe runs the three phases of the serve experiment over data
// (a sharded container): a cold sweep (every shard is a decode), a warm
// sweep (every shard is a cache hit — the cache is sized to hold the
// whole decoded set), and a concurrent phase with `clients` goroutines
// re-reading shards round-robin. It returns the phase timings and the
// final server stats.
func MeasureServe(data []byte, clients, rounds int) ([]*ServeResult, serve.Stats, error) {
	c, err := shard.Open(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, serve.Stats{}, err
	}
	// Budget generously: the warm sweep must hit on every shard.
	srv, err := serve.New(c, serve.Config{CacheBytes: 1 << 30})
	if err != nil {
		return nil, serve.Stats{}, err
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()
	base := ts.URL + "/c/" + serve.DefaultName

	shards := c.NumShards()
	cold, err := sweep(client, base, "cold (decode per shard)", shards)
	if err != nil {
		return nil, serve.Stats{}, err
	}
	warm, err := sweep(client, base, "warm (cache hit per shard)", shards)
	if err != nil {
		return nil, serve.Stats{}, err
	}

	// Concurrent phase: all clients walk all shards `rounds` times.
	conc := &ServeResult{
		Phase:    fmt.Sprintf("%d concurrent clients", clients),
		Requests: clients * rounds * shards,
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	hist := obs.NewHistogram(conc.Phase) // atomic buckets: observers race freely
	start := time.Now()
	for n := 0; n < clients; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			var got int64
			for k := 0; k < rounds*shards; k++ {
				t0 := time.Now()
				b, err := serveGet(client, fmt.Sprintf("%s/shard/%d/reads", base, (n+k)%shards))
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				hist.Observe(time.Since(t0))
				got += b
			}
			mu.Lock()
			conc.Bytes += got
			mu.Unlock()
		}(n)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, serve.Stats{}, firstErr
	}
	conc.Total = time.Since(start)
	conc.Mean = conc.Total / time.Duration(conc.Requests)
	conc.setPercentiles(hist)
	return []*ServeResult{cold, warm, conc}, srv.Stats(), nil
}

// serveGetCond fetches a URL with an optional If-None-Match validator,
// returning the body size, the response ETag, and the status code. 200
// and (for conditional requests) 304 are the accepted statuses.
func serveGetCond(client *http.Client, url, ifNoneMatch string) (n int64, etag string, code int, err error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, "", 0, err
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", 0, err
	}
	defer resp.Body.Close()
	n, err = io.Copy(io.Discard, resp.Body)
	if err != nil {
		return 0, "", 0, err
	}
	ok := resp.StatusCode == http.StatusOK ||
		(ifNoneMatch != "" && resp.StatusCode == http.StatusNotModified)
	if !ok {
		return 0, "", 0, fmt.Errorf("bench: GET %s: %s", url, resp.Status)
	}
	return n, resp.Header.Get("ETag"), resp.StatusCode, nil
}

// MeasureServeRegistry hosts every given container under one server
// (named c0, c1, ...; one shared cache and decode pool) and measures the
// registry phases of the serve experiment: a cross-container cold sweep
// of every shard's decoded reads via /c/{name}/..., then a conditional
// revalidation sweep replaying every request with the ETag the cold
// sweep returned — every answer must be a bodyless 304, the storage-
// aware serving win: consumers re-validate for the price of an index
// lookup instead of re-downloading. Returns the phase timings and final
// server stats.
func MeasureServeRegistry(datas [][]byte) ([]*ServeResult, serve.Stats, error) {
	var named []serve.Named
	total := 0
	for i, data := range datas {
		c, err := shard.Open(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return nil, serve.Stats{}, err
		}
		named = append(named, serve.Named{Name: fmt.Sprintf("c%d", i), C: c})
		total += c.NumShards()
	}
	srv, err := serve.NewMulti(named, serve.Config{CacheBytes: 1 << 30})
	if err != nil {
		return nil, serve.Stats{}, err
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	type shardURL struct{ url, etag string }
	urls := make([]shardURL, 0, total)
	for _, nc := range named {
		for i := 0; i < nc.C.NumShards(); i++ {
			urls = append(urls, shardURL{url: fmt.Sprintf("%s/c/%s/shard/%d/reads", ts.URL, nc.Name, i)})
		}
	}

	cold := &ServeResult{
		Phase:    fmt.Sprintf("registry cold sweep (%d containers)", len(named)),
		Requests: total,
	}
	coldHist := obs.NewHistogram(cold.Phase)
	start := time.Now()
	for i := range urls {
		t0 := time.Now()
		n, etag, _, err := serveGetCond(client, urls[i].url, "")
		if err != nil {
			return nil, serve.Stats{}, err
		}
		coldHist.Observe(time.Since(t0))
		if etag == "" {
			return nil, serve.Stats{}, fmt.Errorf("bench: %s served no ETag", urls[i].url)
		}
		urls[i].etag = etag
		cold.Bytes += n
	}
	cold.Total = time.Since(start)
	cold.Mean = cold.Total / time.Duration(total)
	cold.setPercentiles(coldHist)

	cond := &ServeResult{Phase: "conditional revalidation (If-None-Match)", Requests: total}
	condHist := obs.NewHistogram(cond.Phase)
	start = time.Now()
	for _, u := range urls {
		t0 := time.Now()
		n, _, code, err := serveGetCond(client, u.url, u.etag)
		if err != nil {
			return nil, serve.Stats{}, err
		}
		condHist.Observe(time.Since(t0))
		if code != http.StatusNotModified || n != 0 {
			return nil, serve.Stats{}, fmt.Errorf("bench: revalidating %s: status %d with %d body bytes, want bodyless 304", u.url, code, n)
		}
	}
	cond.Total = time.Since(start)
	cond.Mean = cond.Total / time.Duration(total)
	cond.setPercentiles(condHist)
	return []*ServeResult{cold, cond}, srv.Stats(), nil
}

// ServeExperiment builds the "serve" table on the RS2 dataset: cold vs
// warm shard read latency, the cache hit ratio under concurrent load,
// and the registry phases — one server hosting two containers, swept
// cross-container cold and then revalidated with conditional requests.
func (s *Suite) ServeExperiment() (*Table, error) {
	m, err := s.Measurement("RS2")
	if err != nil {
		return nil, err
	}
	n := len(m.Gen.Reads.Records)
	opt := shard.DefaultOptions(m.Gen.Ref)
	opt.ShardReads = (n + 15) / 16 // ~16 shards, matching the shard experiment
	data, _, err := shard.Compress(m.Gen.Reads, opt)
	if err != nil {
		return nil, err
	}
	const clients, rounds = 8, 4
	results, st, err := MeasureServe(data, clients, rounds)
	if err != nil {
		return nil, err
	}
	// Registry phases: the same read set resharded coarser stands in
	// for a second archive member behind the same daemon.
	opt2 := opt
	opt2.ShardReads = (n + 7) / 8 // ~8 shards
	data2, _, err := shard.Compress(m.Gen.Reads, opt2)
	if err != nil {
		return nil, err
	}
	regResults, regSt, err := MeasureServeRegistry([][]byte{data, data2})
	if err != nil {
		return nil, err
	}
	results = append(results, regResults...)
	t := &Table{
		ID:     "serve",
		Title:  "Shard serving: cold vs warm reads, cache under concurrency, registry + conditional (RS2)",
		Header: []string{"phase", "requests", "mean/req (ms)", "p50 (ms)", "p99 (ms)", "MB/s"},
	}
	phaseKeys := []string{"cold", "warm", "concurrent", "registry_cold", "revalidate"}
	for i, r := range results {
		t.Rows = append(t.Rows, []string{
			r.Phase,
			fmt.Sprintf("%d", r.Requests),
			fmt.Sprintf("%.3f", ms(r.Mean)),
			fmt.Sprintf("%.3f", ms(r.P50)),
			fmt.Sprintf("%.3f", ms(r.P99)),
			f1(r.mbps()),
		})
		key := phaseKeys[i]
		t.Metric(key+"_mean_ms", ms(r.Mean))
		t.Metric(key+"_p50_ms", ms(r.P50))
		t.Metric(key+"_p90_ms", ms(r.P90))
		t.Metric(key+"_p99_ms", ms(r.P99))
		t.Metric(key+"_p999_ms", ms(r.P999))
	}
	coldWarm := float64(results[0].Mean) / float64(results[1].Mean)
	condSpeedup := float64(regResults[0].Mean) / float64(regResults[1].Mean)
	t.Metric("cold_over_warm", coldWarm)
	t.Metric("revalidation_speedup", condSpeedup)
	t.Metric("hit_ratio", st.HitRatio)
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d shards; warm reads are %.1fx faster than cold (decode amortized into the LRU cache)", st.Shards, coldWarm),
		fmt.Sprintf("lifetime: %d requests, %d decodes (singleflight+cache), hit ratio %.2f, %d evictions",
			st.Hits+st.Misses, st.Decodes, st.HitRatio, st.Evictions),
		fmt.Sprintf("registry: %d containers / %d shards behind one daemon; every revalidation answered 304 (%d total, 0 B moved), %.1fx faster than the cold fetch",
			regSt.Containers, regSt.Shards, regSt.NotModified, condSpeedup),
	)
	return t, nil
}
