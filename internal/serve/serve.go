// Package serve implements SAGe's serving layer: an HTTP daemon that
// exposes a registry of sharded containers (internal/shard) at shard
// granularity to many concurrent clients. This is the production read
// path the ROADMAP targets — data preparation as a service, where one
// daemon hosts a whole archive of read sets and analysis nodes pull
// exactly the shards they need instead of downloading and inflating
// whole read sets (the Fig. 1 bottleneck, multiplied by every consumer).
//
// Endpoints:
//
//	GET /containers                      the registered containers, as JSON
//	GET /c/{name}/shards                 container's shard index (+ manifest)
//	GET /c/{name}/shard/{i}              shard i's raw compressed block
//	GET /c/{name}/shard/{i}/reads        shard i decoded to FASTQ text
//	    ?order=original                  … in original input order (v5)
//	GET /c/{name}/files                  the source-file manifest
//	GET /c/{name}/file/{file}/shards     the shards from one source file
//	GET /c/{name}/query?min-len=…        predicate push-down over zone maps
//	GET /stats                           server counters and cache occupancy
//
// /query is the compressed-domain read path: the predicate in the query
// string (min-avgphred, max-ee, min-len, max-len, min-gc, max-gc, kmer)
// is evaluated against the container's v4 zone maps first, and only the
// shards that can possibly match are decoded — pruned shards cost zero
// container I/O. Matching records stream back as FASTQ (count=1 returns
// a JSON summary instead). Containers older than format v4 carry no
// zone maps, so every shard is scanned there.
//
// The shard endpoints speak correct HTTP for cheap re-validation and
// resumption: every response carries an explicit Content-Length and an
// ETag derived from the shard's index crc32 (the raw block and the
// decoded representation get distinct tags), If-None-Match answers 304
// without touching the container, and the raw-block endpoint honors
// single-range Range requests (Accept-Ranges: bytes, 206/416) so a
// client can resume a partial shard fetch.
//
// The /files endpoints exist for containers written by multi-file
// ingest (a fastq.MultiReader through shard.CompressPipeline, container
// format v3 on): every shard is
// attributed to the input file — or R1/R2 mate pair — it came from, so
// an analysis client can pull exactly one lane's or one sample's shards.
// Containers without a manifest answer 404 there.
//
// Decoded shards are kept in one byte-budgeted cache shared by all
// containers, keyed {container, shard}: least-recently-used eviction,
// with a shard admitted over budget only past less frequently read
// victims (cache.go). Decodes run on one bounded
// worker pool shared by all requests, and a singleflight group collapses
// concurrent requests for the same cold shard of the same container into
// one decode: N clients asking for it while it is being decoded all
// receive the one result. A decode renders the shard's FASTQ text
// straight from the decoder (shard.Container.AppendFASTQ): the one
// shape /reads, /query and ?order=original all read. A shard whose text
// exceeds the whole cache budget is never cached: the request holds its
// decode-pool slot until its stream of that text ends, so at most Workers
// such decoded shards are resident at once (concurrent streams of the
// same shard share one copy) and serving memory is bounded by the cache
// budget plus the decode pool, never by container or shard size.
// Containers are opened via shard.Open, so serving
// costs each container's index in memory plus the shared cache budget —
// never the files.
package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sage/internal/fastq"
	"sage/internal/obs"
	"sage/internal/shard"
)

// DefaultCacheBytes is the default decoded-shard cache budget.
const DefaultCacheBytes = 64 << 20

// Config parameterizes a Server.
type Config struct {
	// CacheBytes bounds the decoded-shard cache shared by all
	// containers (<= 0 uses DefaultCacheBytes). The cache never holds
	// more than this many bytes of decoded FASTQ.
	CacheBytes int64
	// Workers bounds concurrent shard decodes across all containers
	// (<= 0 uses GOMAXPROCS).
	Workers int
	// SlowRequest, when > 0, emits one structured log line (and counts
	// sage_slow_requests_total) for every request that takes at least
	// this long; 0 disables the slow log.
	SlowRequest time.Duration
	// slowLog receives slow-request lines in place of os.Stderr (a
	// test's capture). Writes are serialized by the server.
	slowLog io.Writer
}

// Named is one container registration: the name it is routed under
// (/c/{name}/...) and the opened container.
type Named struct {
	Name string
	C    *shard.Container
}

// Server serves a registry of sharded containers. It implements
// http.Handler.
type Server struct {
	cfg    Config
	names  []string // registration order
	byName map[string]*Named
	cache  *shardCache
	fl     flightGroup
	sem    chan struct{}
	reg    *obs.Registry
	met    metrics
	slowMu sync.Mutex
	mux    *http.ServeMux
}

// NewMulti builds a Server hosting every given container, routed by
// name under /c/{name}/.... All containers share one cache budget and
// one decode pool. It fails fast on an empty registry, an
// invalid or duplicate name, or a container that cannot be decoded at
// all (its header embeds no consensus).
func NewMulti(containers []Named, cfg Config) (*Server, error) {
	if len(containers) == 0 {
		return nil, fmt.Errorf("serve: at least one container is required")
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = DefaultCacheBytes
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		cfg:    cfg,
		byName: make(map[string]*Named, len(containers)),
		cache:  newShardCache(cfg.CacheBytes),
		sem:    make(chan struct{}, cfg.Workers),
		mux:    http.NewServeMux(),
	}
	for _, nc := range containers {
		// "." and ".." are rejected too: ServeMux path-cleaning folds
		// /c/../shards into /shards before matching, so such a name
		// could never be reached.
		if nc.Name == "" || nc.Name == "." || nc.Name == ".." || strings.ContainsAny(nc.Name, "/?#%") {
			return nil, fmt.Errorf("serve: container name %q is not routable (must be non-empty, not %q or %q, without '/', '?', '#', '%%')", nc.Name, ".", "..")
		}
		if _, dup := s.byName[nc.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate container name %q", nc.Name)
		}
		if nc.C.Consensus == nil {
			return nil, fmt.Errorf("serve: container %q embeds no consensus", nc.Name)
		}
		s.byName[nc.Name] = &nc
		s.names = append(s.names, nc.Name)
	}

	s.initMetrics()
	// Every route goes through instrument: request-ID propagation, the
	// per-endpoint latency histogram, and the slow-request log. The
	// endpoint label is the route shape.
	s.mux.HandleFunc("GET /containers", s.instrument("containers", s.handleContainers))
	s.mux.HandleFunc("GET /c/{name}/shards", s.instrument("shards", s.registry(s.handleIndex)))
	s.mux.HandleFunc("GET /c/{name}/shard/{i}", s.instrument("shard_block", s.registry(s.handleBlock)))
	s.mux.HandleFunc("GET /c/{name}/shard/{i}/reads", s.instrument("shard_reads", s.registry(s.handleReads)))
	s.mux.HandleFunc("GET /c/{name}/files", s.instrument("files", s.registry(s.handleFiles)))
	s.mux.HandleFunc("GET /c/{name}/file/{file}/shards", s.instrument("file_shards", s.registry(s.handleFileShards)))
	s.mux.HandleFunc("GET /c/{name}/query", s.instrument("query", s.registry(s.handleQuery)))
	s.mux.HandleFunc("GET /stats", s.instrument("stats", s.handleStats))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	return s, nil
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// registry adapts a per-container handler to the /c/{name}/... routes,
// resolving {name} against the registry (unknown name → 404).
func (s *Server) registry(h func(http.ResponseWriter, *http.Request, *Named)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		e, ok := s.byName[r.PathValue("name")]
		if !ok {
			s.fail(w, http.StatusNotFound, fmt.Errorf("serve: no container %q (see /containers)", r.PathValue("name")))
			return
		}
		s.met.containerReqs.With(e.Name).Inc()
		h(w, r, e)
	}
}

// fail answers a request with a clean error status. 4xx statuses are
// the client's mistake (bad shard index, unknown container or file,
// unsatisfiable range); 5xx statuses are the server's data's fault
// (checksum mismatch, undecodable block). The two are counted apart so
// /stats can alert on data corruption without noise from client typos.
// A cancelled request is neither: poolDecode has counted it.
func (s *Server) fail(w http.ResponseWriter, code int, err error) {
	switch {
	case cancelled(err):
	case code >= http.StatusInternalServerError:
		s.met.serverErrs.Inc()
	default:
		s.met.clientErrs.Inc()
	}
	http.Error(w, err.Error(), code)
}

// shardIndex parses and range-checks the {i} path component. Only the
// canonical decimal form is accepted: strconv.Atoi would also admit
// "+1", "01", or " 1"-after-escaping spellings, which would make the
// same shard addressable under several URLs — each with its own cache
// headers and log line. Non-canonical spellings are the client's
// mistake, answered 400.
func (s *Server) shardIndex(w http.ResponseWriter, r *http.Request, e *Named) (int, bool) {
	raw := r.PathValue("i")
	i, err := strconv.Atoi(raw)
	if err != nil || strconv.Itoa(i) != raw {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("serve: shard index %q is not a canonical non-negative integer", raw))
		return 0, false
	}
	if i < 0 || i >= e.C.NumShards() {
		s.fail(w, http.StatusNotFound, fmt.Errorf("serve: shard %d out of range [0,%d)", i, e.C.NumShards()))
		return 0, false
	}
	return i, true
}

// containerInfo is one /containers row.
type containerInfo struct {
	Name          string `json:"name"`
	FormatVersion int    `json:"format_version"`
	Reads         int    `json:"reads"`
	Shards        int    `json:"shards"`
	BlockBytes    int64  `json:"block_bytes"`
	Files         int    `json:"files,omitempty"`
}

// containersListing is the /containers response.
type containersListing struct {
	Containers []containerInfo `json:"containers"`
}

func (s *Server) handleContainers(w http.ResponseWriter, r *http.Request) {
	s.met.indexReads.Inc()
	l := containersListing{Containers: make([]containerInfo, 0, len(s.names))}
	for _, name := range s.names {
		e := s.byName[name]
		l.Containers = append(l.Containers, containerInfo{
			Name:          name,
			FormatVersion: e.C.Version,
			Reads:         e.C.Index.TotalReads,
			Shards:        e.C.NumShards(),
			BlockBytes:    e.C.Index.BlockBytes(),
			Files:         len(e.C.Index.Sources),
		})
	}
	s.writeJSON(w, l)
}

// indexEntry is one /shards row. File names the shard's source (from
// the container's manifest) and is empty for legacy manifest-less
// containers.
type indexEntry struct {
	Shard  int       `json:"shard"`
	Reads  int       `json:"reads"`
	Offset int64     `json:"offset"`
	Bytes  int64     `json:"bytes"`
	CRC32  string    `json:"crc32"`
	File   string    `json:"file,omitempty"`
	Zone   *zoneJSON `json:"zone,omitempty"`
}

// zoneJSON renders one shard's zone map (format v4) so clients can plan
// their own pruning without fetching anything. Milli-unit wire fields
// are rendered back in natural units (Phred points, expected errors, GC
// fraction).
type zoneJSON struct {
	MinLen       int     `json:"min_len"`
	MaxLen       int     `json:"max_len"`
	QualReads    int     `json:"qual_reads"`
	LowQualReads int     `json:"low_qual_reads"`
	MinAvgPhred  float64 `json:"min_avg_phred"`
	MaxAvgPhred  float64 `json:"max_avg_phred"`
	MinEE        float64 `json:"min_ee"`
	MaxEE        float64 `json:"max_ee"`
	MinGC        float64 `json:"min_gc"`
	MaxGC        float64 `json:"max_gc"`
	SketchFill   float64 `json:"sketch_fill"`
}

// fileEntry is one source-manifest row, as served by /shards and
// /files: an input file (or R1/R2 mate pair) with its per-file totals.
type fileEntry struct {
	File   string `json:"file"` // display name ("r1" or "r1+r2")
	Name   string `json:"name"`
	Mate   string `json:"mate,omitempty"`
	Reads  int    `json:"reads"`
	Shards int    `json:"shards"`
	Bytes  int64  `json:"bytes"`
}

// indexListing is the /shards response.
type indexListing struct {
	Container      string       `json:"container,omitempty"`
	FormatVersion  int          `json:"format_version"`
	Reads          int          `json:"reads"`
	Shards         int          `json:"shards"`
	ShardReads     int          `json:"shard_reads"`
	BlockBytes     int64        `json:"block_bytes"`
	ConsensusBases int          `json:"consensus_bases"`
	Files          []fileEntry  `json:"files,omitempty"`
	Index          []indexEntry `json:"index"`
}

// fileEntries builds the manifest rows with per-file shard and byte
// totals; nil for manifest-less containers.
func (e *Named) fileEntries() []fileEntry {
	srcs := e.C.Index.Sources
	if len(srcs) == 0 {
		return nil
	}
	shards, bytesPer := e.C.Index.SourceShards(), e.C.Index.SourceBytes()
	out := make([]fileEntry, len(srcs))
	for i, src := range srcs {
		out[i] = fileEntry{
			File:   src.Display(),
			Name:   src.Name,
			Mate:   src.Mate,
			Reads:  src.Reads,
			Shards: shards[i],
			Bytes:  bytesPer[i],
		}
	}
	return out
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request, e *Named) {
	s.met.indexReads.Inc()
	l := indexListing{
		Container:      e.Name,
		FormatVersion:  e.C.Version,
		Reads:          e.C.Index.TotalReads,
		Shards:         e.C.NumShards(),
		ShardReads:     e.C.Index.ShardReads,
		BlockBytes:     e.C.Index.BlockBytes(),
		ConsensusBases: len(e.C.Consensus),
		Files:          e.fileEntries(),
		Index:          make([]indexEntry, 0, e.C.NumShards()),
	}
	for i, ent := range e.C.Index.Entries {
		l.Index = append(l.Index, e.entryJSON(i, ent))
	}
	s.writeJSON(w, l)
}

// entryJSON renders one index entry, attributing it to its source file
// when the container has a manifest.
func (e *Named) entryJSON(i int, ent shard.Entry) indexEntry {
	out := indexEntry{
		Shard:  i,
		Reads:  ent.ReadCount,
		Offset: ent.Offset,
		Bytes:  ent.Length,
		CRC32:  fmt.Sprintf("%08x", ent.Checksum),
	}
	if len(e.C.Index.Sources) > 0 {
		out.File = e.C.Index.Sources[ent.Source].Display()
	}
	if e.C.HasZoneMaps() {
		z := ent.Zone
		out.Zone = &zoneJSON{
			MinLen:       z.MinLen,
			MaxLen:       z.MaxLen,
			QualReads:    z.QualReads,
			LowQualReads: z.LowQualReads,
			MinAvgPhred:  float64(z.MinAvgPhredMilli) / 1000,
			MaxAvgPhred:  float64(z.MaxAvgPhredMilli) / 1000,
			MinEE:        float64(z.MinEEMilli) / 1000,
			MaxEE:        float64(z.MaxEEMilli) / 1000,
			MinGC:        float64(z.MinGCMilli) / 1000,
			MaxGC:        float64(z.MaxGCMilli) / 1000,
			SketchFill:   z.SketchFill(),
		}
	}
	return out
}

// filesListing is the /files response.
type filesListing struct {
	Files []fileEntry `json:"files"`
}

func (s *Server) handleFiles(w http.ResponseWriter, r *http.Request, e *Named) {
	files := e.fileEntries()
	if files == nil {
		s.fail(w, http.StatusNotFound, fmt.Errorf("serve: container has no source manifest (written before format v3, or from a single stream)"))
		return
	}
	s.met.fileReads.Inc()
	s.writeJSON(w, filesListing{Files: files})
}

// fileShardsListing is the /file/{name}/shards response.
type fileShardsListing struct {
	File  fileEntry    `json:"file"`
	Index []indexEntry `json:"index"`
}

func (s *Server) handleFileShards(w http.ResponseWriter, r *http.Request, e *Named) {
	files := e.fileEntries()
	if files == nil {
		s.fail(w, http.StatusNotFound, fmt.Errorf("serve: container has no source manifest (written before format v3, or from a single stream)"))
		return
	}
	name := r.PathValue("file")
	src := -1
	for i, f := range files {
		if name == f.File || name == f.Name || (f.Mate != "" && name == f.Mate) {
			src = i
			break
		}
	}
	if src < 0 {
		s.fail(w, http.StatusNotFound, fmt.Errorf("serve: no source file %q in the manifest", name))
		return
	}
	s.met.fileReads.Inc()
	l := fileShardsListing{File: files[src]}
	for i, ent := range e.C.Index.Entries {
		if ent.Source == src {
			l.Index = append(l.Index, e.entryJSON(i, ent))
		}
	}
	s.writeJSON(w, l)
}

func (s *Server) handleBlock(w http.ResponseWriter, r *http.Request, e *Named) {
	i, ok := s.shardIndex(w, r, e)
	if !ok {
		return
	}
	ent := e.C.Index.Entries[i]
	tag := blockETag(ent)
	h := w.Header()
	h.Set("Accept-Ranges", "bytes")
	h.Set("ETag", tag)
	h.Set("X-Sage-Shard-Reads", strconv.Itoa(ent.ReadCount))
	h.Set("X-Sage-Shard-CRC32", fmt.Sprintf("%08x", ent.Checksum))
	// Both the 304 and 416 answers come straight from the index: a
	// revalidation or a bad range costs no container I/O at all.
	if etagMatch(r.Header.Get("If-None-Match"), tag) {
		s.met.notModified.Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	start, length, partial, err := parseRange(r.Header.Get("Range"), ent.Length)
	if err != nil {
		h.Set("Content-Range", fmt.Sprintf("bytes */%d", ent.Length))
		s.fail(w, http.StatusRequestedRangeNotSatisfiable, err)
		return
	}
	blk, err := e.C.Block(i)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	s.met.blockReads.Inc()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.FormatInt(length, 10))
	if partial {
		s.met.rangeReads.Inc()
		h.Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", start, start+length-1, ent.Length))
		w.WriteHeader(http.StatusPartialContent)
	}
	s.writeBody(w, blk[start:start+length])
}

func (s *Server) handleReads(w http.ResponseWriter, r *http.Request, e *Named) {
	i, ok := s.shardIndex(w, r, e)
	if !ok {
		return
	}
	switch order := r.URL.Query().Get("order"); order {
	case "", "stored":
	case "original":
		// A reordered (v5) container re-sorts the shard's records back
		// to input order — a distinct representation with a distinct
		// ETag. Identity-order containers already serve input order, so
		// they fall through to the shared (cached) path, same tag and
		// all.
		if e.C.Index.ReorderMode != shard.ReorderNone {
			s.handleReadsOriginal(w, r, e, i)
			return
		}
	default:
		s.fail(w, http.StatusBadRequest,
			fmt.Errorf("serve: unknown order %q (want \"original\" or \"stored\")", order))
		return
	}
	ent := e.C.Index.Entries[i]
	tag := readsETag(ent)
	h := w.Header()
	h.Set("ETag", tag)
	h.Set("X-Sage-Shard-Reads", strconv.Itoa(ent.ReadCount))
	// Revalidation never decodes: the tag derives from the index crc32.
	if etagMatch(r.Header.Get("If-None-Match"), tag) {
		s.met.notModified.Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	d, err := s.decodedShard(r.Context(), e, i)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	defer d.done()
	s.met.readReqs.Inc()
	h.Set("Content-Type", "text/plain; charset=utf-8")
	h.Set("Content-Length", strconv.Itoa(len(d.data)))
	s.writeBody(w, d.data)
}

// handleReadsOriginal serves a reordered shard's records sorted back
// to original input order. The shard's records occupy stored positions
// [start, start+count), so their original indices are Perm[start+j];
// sorting the records' spans in the shard's text by that index recovers
// the input order without touching any other shard. The text comes from
// the shared cache, flight group and decode pool, as for /reads, and the
// representation carries its own ETag — RFC 9110 requires distinct tags
// for distinct representations of one resource.
func (s *Server) handleReadsOriginal(w http.ResponseWriter, r *http.Request, e *Named, i int) {
	ent := e.C.Index.Entries[i]
	tag := readsOriginalETag(ent)
	h := w.Header()
	h.Set("ETag", tag)
	h.Set("X-Sage-Shard-Reads", strconv.Itoa(ent.ReadCount))
	if etagMatch(r.Header.Get("If-None-Match"), tag) {
		s.met.notModified.Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	d, err := s.decodedShard(r.Context(), e, i)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	defer d.done()
	start := 0
	for _, ent := range e.C.Index.Entries[:i] {
		start += ent.ReadCount
	}
	perm := e.C.Index.Perm
	type span struct {
		orig int64
		text []byte
	}
	spans := make([]span, 0, ent.ReadCount)
	for rest := d.data; len(rest) > 0; {
		rec, next, err := fastq.NextRecord(rest)
		if err == nil && start+len(spans) >= len(perm) {
			err = fmt.Errorf("serve: shard %d decodes past the container's %d-entry permutation", i, len(perm))
		}
		if err != nil {
			s.fail(w, http.StatusInternalServerError, err)
			return
		}
		spans = append(spans, span{perm[start+len(spans)], rec.Bytes})
		rest = next
	}
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.orig, b.orig) })
	s.met.readReqs.Inc()
	h.Set("Content-Type", "text/plain; charset=utf-8")
	h.Set("Content-Length", strconv.Itoa(len(d.data))) // reordering moves no byte in or out
	for _, sp := range spans {
		if _, err := w.Write(sp.text); err != nil {
			s.met.writeFails.Inc()
			return
		}
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, s.Stats())
}

// decoded is one shard's decoded FASTQ text. A shard too large for the
// cache budget keeps its decode-pool slot until every consumer is done —
// the slot is what bounds how many oversized decoded shards can be
// resident at once — so the flight claims one reference per consumer
// before handing it out, and each consumer must call done() when its
// stream finishes; the last one releases the slot.
type decoded struct {
	data    []byte
	refs    atomic.Int64
	release func()
}

// claim records n consumers about to receive this decoded. The flight
// group calls it exactly once, before any consumer can run, so done()
// can never release early. No-op for the cached shape.
func (d *decoded) claim(n int) {
	if d.release != nil {
		d.refs.Add(int64(n))
	}
}

// done signals one consumer finished; the last one out releases the
// decode-pool slot.
func (d *decoded) done() {
	if d.release != nil && d.refs.Add(-1) == 0 {
		d.release()
	}
}

// poolDecode runs decode, the server's one kind of core decode, holding
// a slot of the bounded pool, counted in decodes, timed on the pool
// histograms and, when ctx carries an obs.Trace, recorded as that
// request's "queue-wait" and "decode" spans. On success it returns still
// holding the slot; the caller frees it (<-s.sem) once the decoded
// shard may leave memory. A request cancelled while it waits for a slot
// gives up the wait, is counted in cancelled, and returns ctx.Err().
func (s *Server) poolDecode(ctx context.Context, decode func() error) error {
	_, qsp := obs.Start(ctx, "queue-wait")
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		qsp.End()
		s.met.cancelled.Inc()
		return ctx.Err()
	}
	s.met.queueWait.Observe(qsp.End())
	s.met.decodes.Inc()
	_, dsp := obs.Start(ctx, "decode")
	err := decode()
	s.met.decode.Observe(dsp.End())
	if err != nil {
		<-s.sem
	}
	return err
}

// decodedShard returns shard i of e as decoded FASTQ: from the shared
// cache when warm, otherwise via exactly one poolDecode no matter how
// many requests arrive while it runs. The flight key includes the
// container name, so the same shard index in two different containers
// is never falsely deduplicated. Joiners wait on the flight, not the
// pool, so their traces record nothing. A joiner whose leader's request
// was cancelled, while its own is live, retries once as leader.
func (s *Server) decodedShard(ctx context.Context, e *Named, i int) (*decoded, error) {
	key := shardKey{container: e.Name, shard: i}
	if data, ok := s.cache.get(key); ok {
		s.met.hits.Inc()
		s.met.cacheHitBytes.Add(int64(len(data)))
		return &decoded{data: data}, nil
	}
	s.met.misses.Inc()
	lead := func() (*decoded, error) {
		// Re-check under the flight: a caller that missed the cache can
		// reach here after an earlier flight for the same shard already
		// completed and cached; leading a second decode would break the
		// one-decode-per-cold-shard invariant. The request was counted
		// by the get above, so this lookup neither counts nor promotes.
		if data, ok := s.cache.peek(key); ok {
			s.met.cacheHitBytes.Add(int64(len(data)))
			return &decoded{data: data}, nil
		}
		var data []byte
		if err := s.poolDecode(ctx, func() (err error) {
			data, err = e.C.AppendFASTQ(nil, i)
			return err
		}); err != nil {
			return nil, err
		}
		size := int64(len(data))
		s.met.cacheMissB.Add(size)
		if size > s.cfg.CacheBytes {
			// The text could never be cached. The decode-pool slot stays
			// held until the LAST sharing stream finishes (the flight
			// refcounts its consumers): that is what keeps N slow
			// clients on N oversized shards from pinning N decoded
			// shards — at most Workers such shards are resident, the
			// rest of the requests queue here.
			return &decoded{data: data, release: func() { <-s.sem }}, nil
		}
		evicted, evictedBytes, rejected := s.cache.add(key, data)
		s.met.evictions.Add(int64(evicted))
		s.met.cacheEvictedB.Add(evictedBytes)
		if rejected {
			s.met.cacheRejected.Inc()
		}
		<-s.sem
		return &decoded{data: data}, nil
	}
	d, err, shared := s.fl.do(key, lead)
	if shared && cancelled(err) && ctx.Err() == nil {
		d, err, shared = s.fl.do(key, lead)
	}
	if shared {
		s.met.deduped.Inc()
	}
	return d, err
}

// cancelled reports whether err is a request's context ending.
func cancelled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// DecodedShardOf exposes the cached decode path of a named container
// without HTTP, for in-process consumers (bench, tests).
func (s *Server) DecodedShardOf(name string, i int) ([]byte, error) {
	e, ok := s.byName[name]
	if !ok {
		return nil, fmt.Errorf("serve: no container %q", name)
	}
	if i < 0 || i >= e.C.NumShards() {
		return nil, fmt.Errorf("serve: shard %d out of range [0,%d)", i, e.C.NumShards())
	}
	d, err := s.decodedShard(context.Background(), e, i)
	if err != nil {
		return nil, err
	}
	d.done()
	return d.data, nil
}

// writeJSON writes v as indented JSON. Encode failures — a client that
// hung up mid-response, or a dying connection — are counted instead of
// silently dropped.
func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.met.writeFails.Inc()
	}
}

// writeBody writes a fully materialized response body, counting
// failed/aborted writes.
func (s *Server) writeBody(w http.ResponseWriter, b []byte) {
	if _, err := w.Write(b); err != nil {
		s.met.writeFails.Inc()
	}
}
