package serve

// Stats is a point-in-time snapshot of the server, as served by /stats.
// Shards and Reads aggregate over every registered container.
type Stats struct {
	Containers  int   `json:"containers"`
	Shards      int   `json:"shards"`
	Reads       int   `json:"reads"`
	IndexReads  int64 `json:"index_reads"`
	BlockReads  int64 `json:"block_reads"`
	RangeReads  int64 `json:"range_requests"`
	NotModified int64 `json:"not_modified"`
	ReadReqs    int64 `json:"read_requests"`
	FileReads   int64 `json:"file_requests"`
	// QueryReqs counts accepted /query requests; ShardsPruned and
	// ShardsScanned partition the shards those queries planned over —
	// pruned shards cost zero container I/O — and QueryMatched totals
	// the records they matched.
	QueryReqs     int64 `json:"query_requests"`
	ShardsPruned  int64 `json:"shards_pruned"`
	ShardsScanned int64 `json:"shards_scanned"`
	QueryMatched  int64 `json:"query_reads_matched"`
	Hits          int64 `json:"cache_hits"`
	Misses        int64 `json:"cache_misses"`
	Decodes       int64 `json:"decodes"`
	Deduped       int64 `json:"deduped_decodes"`
	Evictions     int64 `json:"evictions"`
	// CacheRejected counts decoded shards served but not cached: the
	// cache was full and an entry they would have evicted had been read
	// at least as often.
	CacheRejected int64 `json:"cache_rejected"`
	// Cancelled counts requests that gave up while waiting for a
	// decode-pool slot.
	Cancelled int64 `json:"cancelled"`
	// ClientErrors counts 4xx answers (bad shard index, unknown
	// container or file, unsatisfiable range); ServerErrors counts 5xx
	// answers (checksum mismatch, undecodable block) — the counter to
	// alert on, since a non-zero value means damaged data. Errors is
	// their sum, kept for clients of the original combined counter.
	ClientErrors int64 `json:"client_errors"`
	ServerErrors int64 `json:"server_errors"`
	Errors       int64 `json:"errors"`
	// WriteFailures counts response bodies that could not be fully
	// written (client hang-ups, dying connections).
	WriteFailures int64 `json:"write_failures"`
	// HitRatio is hits / (hits + misses), 0 before any reads request.
	HitRatio float64 `json:"hit_ratio"`
	// CacheBytes / CacheEntries describe the decoded-shard cache right
	// now; CacheBudget is its configured byte bound.
	CacheBytes   int64 `json:"cache_bytes"`
	CacheEntries int   `json:"cache_entries"`
	CacheBudget  int64 `json:"cache_budget"`
	Workers      int   `json:"decode_workers"`
	// PerContainer breaks the registry totals down by container, in
	// registration order: request traffic plus each container's share of
	// the shared decoded-shard cache.
	PerContainer []ContainerStats `json:"per_container,omitempty"`
}

// ContainerStats is one container's slice of the registry snapshot.
type ContainerStats struct {
	Name         string `json:"name"`
	Requests     int64  `json:"requests"`
	Shards       int    `json:"shards"`
	Reads        int    `json:"reads"`
	CacheBytes   int64  `json:"cache_bytes"`
	CacheEntries int    `json:"cache_entries"`
}

// Stats snapshots the server's counters — the same obs.Counters /metrics
// exposes, so the two surfaces cannot disagree — and cache occupancy.
func (s *Server) Stats() Stats {
	bytes, entries := s.cache.usage()
	st := Stats{
		Containers:    len(s.names),
		IndexReads:    s.met.indexReads.Value(),
		BlockReads:    s.met.blockReads.Value(),
		RangeReads:    s.met.rangeReads.Value(),
		NotModified:   s.met.notModified.Value(),
		ReadReqs:      s.met.readReqs.Value(),
		FileReads:     s.met.fileReads.Value(),
		QueryReqs:     s.met.queryReqs.Value(),
		ShardsPruned:  s.met.shardsPruned.Value(),
		ShardsScanned: s.met.shardsScanned.Value(),
		QueryMatched:  s.met.queryMatched.Value(),
		Hits:          s.met.hits.Value(),
		Misses:        s.met.misses.Value(),
		Decodes:       s.met.decodes.Value(),
		Deduped:       s.met.deduped.Value(),
		Evictions:     s.met.evictions.Value(),
		CacheRejected: s.met.cacheRejected.Value(),
		Cancelled:     s.met.cancelled.Value(),
		ClientErrors:  s.met.clientErrs.Value(),
		ServerErrors:  s.met.serverErrs.Value(),
		WriteFailures: s.met.writeFails.Value(),
		CacheBytes:    bytes,
		CacheEntries:  entries,
		CacheBudget:   s.cfg.CacheBytes,
		Workers:       s.cfg.Workers,
	}
	st.Errors = st.ClientErrors + st.ServerErrors
	byContainer := s.cache.usageByContainer()
	for _, name := range s.names {
		e := s.byName[name]
		st.Shards += e.C.NumShards()
		st.Reads += e.C.Index.TotalReads
		u := byContainer[name]
		st.PerContainer = append(st.PerContainer, ContainerStats{
			Name:         name,
			Requests:     s.met.containerReqs.With(name).Value(),
			Shards:       e.C.NumShards(),
			Reads:        e.C.Index.TotalReads,
			CacheBytes:   u.bytes,
			CacheEntries: u.entries,
		})
	}
	if total := st.Hits + st.Misses; total > 0 {
		st.HitRatio = float64(st.Hits) / float64(total)
	}
	return st
}
