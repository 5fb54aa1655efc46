// Observability wiring for the serving registry: per-endpoint request
// latency histograms, decode-pool queue-wait and decode-time
// histograms, cache byte-flow counters, request-ID propagation, a
// structured slow-request log, and the GET /metrics Prometheus text
// exposition — all built on internal/obs, no external dependencies.
//
// Conventions (documented in README "Observability"):
//
//   - Histograms are *_seconds with log-spaced buckets; counters are
//     *_total; byte counters are *_bytes_total.
//   - The one label on request histograms is endpoint (the route
//     shape, e.g. shard_reads), never the raw path — label values must
//     be low-cardinality.
//   - Per-container traffic carries a container label.
//   - Every response echoes X-Sage-Request-Id (the client's, if it
//     sent one; minted otherwise), so one ID follows a request through
//     client logs, the slow log, and any downstream hop.
package serve

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"sage/internal/obs"
)

// RequestIDHeader is the request-ID propagation header: honored on
// requests, echoed on every response.
const RequestIDHeader = "X-Sage-Request-Id"

// endpoints names every route shape the server serves, in exposition
// order. Each gets its request histogram registered up front, so a
// scrape before any traffic still shows the full metric surface.
var endpoints = []string{
	"containers", "shards", "shard_block", "shard_reads",
	"files", "file_shards", "query", "stats", "metrics",
}

// metrics is the server's obs instrument panel, and the only copy of
// its counters: the request paths increment them, Stats reads them, and
// /metrics renders them.
type metrics struct {
	requests      *obs.HistogramVec // by endpoint
	queueWait     *obs.Histogram
	decode        *obs.Histogram
	containerReqs *obs.CounterVec // by container

	indexReads, blockReads, rangeReads, notModified, readReqs, fileReads *obs.Counter
	queryReqs, shardsPruned, shardsScanned, queryMatched                 *obs.Counter
	hits, misses, decodes, deduped, evictions, cacheRejected             *obs.Counter
	cacheHitBytes, cacheMissB, cacheEvictedB                             *obs.Counter
	clientErrs, serverErrs, writeFails, slowRequests, cancelled          *obs.Counter
}

// initMetrics builds the registry. Registration order is exposition
// order.
func (s *Server) initMetrics() {
	r := obs.NewRegistry()
	s.reg = r
	m := &s.met
	m.requests = r.HistogramVec("sage_http_request_seconds",
		"HTTP request latency by endpoint.", "endpoint")
	for _, ep := range endpoints {
		m.requests.With(ep)
	}
	m.queueWait = r.Histogram("sage_decode_queue_wait_seconds",
		"Time cold requests waited for a decode-pool slot.")
	m.decode = r.Histogram("sage_decode_seconds",
		"Shard decode time on the pool.")
	m.containerReqs = r.CounterVec("sage_container_requests_total",
		"Requests routed to each registered container.", "container")
	for _, name := range s.names {
		m.containerReqs.With(name)
	}
	m.indexReads = r.Counter("sage_index_requests_total", "Container and shard index listings served.")
	m.blockReads = r.Counter("sage_block_requests_total", "Raw-block requests served with a body (200/206).")
	m.rangeReads = r.Counter("sage_range_requests_total", "Raw-block requests answered 206.")
	m.notModified = r.Counter("sage_not_modified_total", "Conditional requests answered 304.")
	m.readReqs = r.Counter("sage_read_requests_total", "Decoded-shard requests served with a body.")
	m.fileReads = r.Counter("sage_file_requests_total", "Source-manifest requests served.")
	m.queryReqs = r.Counter("sage_query_requests_total", "Query requests accepted (parseable predicate).")
	m.shardsPruned = r.Counter("sage_shards_pruned_total", "Shards zone-map pruning skipped (zero I/O).")
	m.shardsScanned = r.Counter("sage_shards_scanned_total", "Shards a query had to decode.")
	m.queryMatched = r.Counter("sage_query_reads_matched_total", "Records matched by query predicates.")
	m.hits = r.Counter("sage_cache_hits_total", "Decoded-shard cache hits.")
	m.misses = r.Counter("sage_cache_misses_total", "Decoded-shard cache misses.")
	m.decodes = r.Counter("sage_decodes_total", "Shard decodes performed.")
	m.deduped = r.Counter("sage_deduped_decodes_total", "Cache misses that joined an in-flight decode (singleflight).")
	m.evictions = r.Counter("sage_cache_evictions_total", "Decoded-shard cache entries evicted.")
	m.cacheRejected = r.Counter("sage_cache_admission_rejects_total", "Decoded shards served but not cached: read no more often than an entry they would evict.")
	m.cacheHitBytes = r.Counter("sage_cache_hit_bytes_total", "Decoded bytes served from the shard cache.")
	m.cacheMissB = r.Counter("sage_cache_miss_bytes_total", "Decoded bytes produced by cache-missing decodes.")
	m.cacheEvictedB = r.Counter("sage_cache_evicted_bytes_total", "Decoded bytes evicted from the shard cache.")
	m.clientErrs = r.Counter("sage_client_errors_total", "Requests answered with a 4xx status.")
	m.serverErrs = r.Counter("sage_server_errors_total", "Requests answered with a 5xx status (data damage alarm).")
	m.writeFails = r.Counter("sage_write_failures_total", "Response writes that failed or were aborted.")
	m.slowRequests = r.Counter("sage_slow_requests_total", "Requests slower than the configured slow-request threshold.")
	m.cancelled = r.Counter("sage_requests_cancelled_total", "Requests cancelled while waiting for a decode-pool slot.")
	r.GaugeFunc("sage_cache_resident_bytes", "Decoded bytes resident in the shard cache.",
		func() int64 { b, _ := s.cache.usage(); return b })
	r.GaugeFunc("sage_cache_entries", "Decoded shards resident in the cache.",
		func() int64 { _, n := s.cache.usage(); return int64(n) })
	r.GaugeFunc("sage_cache_budget_bytes", "Configured shard-cache byte budget.",
		func() int64 { return s.cfg.CacheBytes })
	r.GaugeFunc("sage_decode_workers", "Configured decode-pool size.",
		func() int64 { return int64(s.cfg.Workers) })
}

// statusWriter captures the response status for the latency histogram
// and the slow log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) code() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// instrument wraps a handler with the request-scope observability:
// request-ID propagation (honor the client's, mint otherwise, echo
// always), a per-request obs.Trace in the context so downstream stages
// (queue-wait, decode) attach spans, the per-endpoint latency
// histogram, and the slow-request log.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.met.requests.With(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set(RequestIDHeader, id)
		tr := obs.NewTrace(id)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h(sw, r.WithContext(obs.WithTrace(r.Context(), tr)))
		d := time.Since(start)
		hist.Observe(d)
		if s.cfg.SlowRequest > 0 && d >= s.cfg.SlowRequest {
			s.met.slowRequests.Inc()
			s.logSlow(r, endpoint, id, sw.code(), d, tr)
		}
	}
}

// logSlow emits one structured line per slow request: key=value pairs
// plus the trace's stage attribution, so an operator reading the log
// sees not just that a request was slow but which stage owned the time.
//
//	sage-slow-request id=... endpoint=shard_reads method=GET
//	path="/c/a/shard/3/reads" status=200 dur=1.2s
//	stages="queue-wait:3µs,decode:1.19s"
func (s *Server) logSlow(r *http.Request, endpoint, id string, status int, d time.Duration, tr *obs.Trace) {
	var stages strings.Builder
	for i, st := range tr.Stages() {
		if i > 0 {
			stages.WriteByte(',')
		}
		fmt.Fprintf(&stages, "%s:%v", st.Stage, st.Total.Round(time.Microsecond))
	}
	line := fmt.Sprintf("sage-slow-request id=%s endpoint=%s method=%s path=%q status=%d dur=%v stages=%q\n",
		id, endpoint, r.Method, r.URL.RequestURI(), status, d.Round(time.Microsecond), stages.String())
	s.slowMu.Lock()
	defer s.slowMu.Unlock()
	io.WriteString(s.slowLog(), line)
}

// slowLog resolves the slow-request sink (default stderr).
func (s *Server) slowLog() io.Writer {
	if s.cfg.slowLog != nil {
		return s.cfg.slowLog
	}
	return os.Stderr
}

// handleMetrics serves the whole registry in Prometheus text exposition
// format — the machine-readable sibling of /stats.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	if err := s.reg.WritePrometheus(w); err != nil {
		s.met.writeFails.Inc()
	}
}
