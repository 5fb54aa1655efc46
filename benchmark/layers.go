package main

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"sage/internal/core"
	"sage/internal/fastq"
	"sage/internal/headers"
	"sage/internal/mapper"
	"sage/internal/pargz"
	"sage/internal/qual"
	"sage/internal/reorder"
	"sage/internal/shard"
)

// runTraced is the traced pass: after the same set-up as runEndToEnd it
// repeats tracedRound until cfg.seconds have passed (at least once), reports
// the median of each per-layer metric over the rounds, and writes the spans
// of every round to <workload>.trace.json. No end-to-end figure is taken here.
func runTraced(cfg config, w workload) (*result, error) {
	cfg.minRounds = 1
	var t tally
	p, err := prepare(cfg, w, &t)
	if err != nil {
		return nil, err
	}
	tr := newTracer(w.Name)
	s := samples{}
	start := time.Now()
	rounds := 0
	for ; cfg.another(rounds, start); rounds++ {
		tr.round = rounds
		if err := tracedRound(cfg, p, tr, s, &t); err != nil {
			return nil, fmt.Errorf("%s: traced round %d: %w", w.Name, rounds, err)
		}
	}
	s.add("proc.peak_rss_mb", peakRSSMB())
	if err := tr.write(filepath.Join(cfg.outDir, w.Name+".trace.json")); err != nil {
		return nil, err
	}
	res := newResult(cfg, w, p, &t, rounds)
	res.PerLayer = report(perLayer, s, nil)
	return res, nil
}

// sliceSource replays already-scanned batches into a pipeline stage.
type sliceSource struct {
	batches []fastq.Batch
	next    int
}

func (s *sliceSource) Next() (fastq.Batch, error) {
	if s.next >= len(s.batches) {
		return fastq.Batch{}, io.EOF
	}
	s.next++
	return s.batches[s.next-1], nil
}

func drain(src fastq.BatchSource) ([]fastq.Batch, error) {
	var out []fastq.Batch
	for {
		b, err := src.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func medianOf(v []float64) float64 { return summarize(v).Median }

func mbps(bytes int, millis float64) float64 { return float64(bytes) / 1e6 / (millis / 1e3) }

// round is one traced round: what it measures on, where its spans and samples
// go, and the few figures a later phase needs from an earlier one.
type round struct {
	cfg config
	p   *prepared
	tr  *tracer
	s   samples
	t   *tally

	ingest1MS, decode1MS float64 // one-worker pipeline walls
	reads, scores        int     // counted by the ingest layers
}

// tracedRound runs, on one goroutine: (1) the workload's whole ingest and
// whole decode at one worker and at nproc workers, one span each; (2) the same
// data pushed through each layer's exported functions in pipeline order, one
// span per call; (3) the serving phases with a span per request. It adds one
// sample per per-layer metric to s.
func tracedRound(cfg config, p *prepared, tr *tracer, s samples, t *tally) error {
	r := &round{cfg: cfg, p: p, tr: tr, s: s, t: t}
	for _, phase := range []func() error{r.pipelines, r.ingestLayers, r.decodeLayers, r.serving} {
		if err := phase(); err != nil {
			return err
		}
	}
	return nil
}

// pipelines times the whole ingest and the whole decode from outside.
func (r *round) pipelines() error {
	p, s, tmp := r.p, r.s, r.cfg.tmpDir()
	mb := float64(p.ds.plainBytes) / 1e6
	whole := func(name string, workers int, run func(int, string) (time.Duration, error)) (time.Duration, float64, error) {
		runtime.GC()
		a0 := totalAlloc()
		var d time.Duration
		err := r.tr.in(name, -1, -1, func(int) (err error) {
			d, err = run(workers, tmp)
			return err
		})
		r.t.op(err)
		return d, float64(totalAlloc()-a0) / 1e6 / mb, err
	}
	ingest1, ingestAlloc, err := whole("ingest_1w", 1, p.timedIngest)
	if err != nil {
		return err
	}
	ingestN, _, err := whole("ingest_nw", p.workers, p.timedIngest)
	if err != nil {
		return err
	}
	decode1, decodeAlloc, err := whole("decode_1w", 1, p.timedDecode)
	if err != nil {
		return err
	}
	decodeN, _, err := whole("decode_nw", p.workers, p.timedDecode)
	if err != nil {
		return err
	}
	r.ingest1MS, r.decode1MS = float64(ingest1)/1e6, float64(decode1)/1e6
	s.add("shard.ingest_1w_ms", r.ingest1MS)
	s.add("shard.ingest_scaling", ingest1.Seconds()/ingestN.Seconds())
	s.add("shard.ingest_alloc_mb_per_mb", ingestAlloc)
	s.add("shard.decode_1w_mbps", mb/decode1.Seconds())
	s.add("shard.decode_scaling", decode1.Seconds()/decodeN.Seconds())
	s.add("shard.decode_alloc_mb_per_mb", decodeAlloc)
	s.add("shard.shards", float64(p.stats.Shards))
	s.add("shard.header_bytes", float64(p.stats.HeaderBytes))
	return nil
}

// ingestLayers pushes the input through gunzip → scan → reorder → mapper
// index → per shard {core.Compress; then Map per read, qual.Compress and
// headers.Compress on the same batch, as children of the core.Compress span}.
func (r *round) ingestLayers() error {
	ds, tr, s, tmp := r.p.ds, r.tr, r.s, r.cfg.tmpDir()
	root := tr.begin("layers.ingest", -1, -1)
	defer tr.end(root)

	plain := ds.inputs
	if ds.w.Paired {
		plain = make([][]byte, len(ds.inputs))
		members := 0
		for i, in := range ds.inputs {
			err := tr.in("pargz.gunzip", root, -1, func(int) error {
				zr, err := fastq.Sniff(bytes.NewReader(in), fastq.SniffOptions{Threads: 1})
				if err != nil {
					return err
				}
				defer fastq.CloseSniffed(zr)
				var buf bytes.Buffer
				_, err = buf.ReadFrom(zr)
				plain[i] = buf.Bytes()
				return err
			})
			if err != nil {
				return err
			}
			m, err := pargz.SplitMembers(in)
			if err != nil {
				return err
			}
			members += len(m)
		}
		s.add("pargz.gunzip_ms", tr.totalMS("pargz.gunzip"))
		s.add("pargz.gunzip_mbps", mbps(int(ds.plainBytes), tr.totalMS("pargz.gunzip")))
		s.add("pargz.members", float64(members))
	}

	var batches []fastq.Batch
	err := tr.in("fastq.scan", root, -1, func(int) (err error) {
		var src fastq.BatchSource = fastq.NewBatchReader(bytes.NewReader(plain[0]), ds.w.ShardReads)
		if ds.w.Paired {
			src, err = fastq.NewPairedReader([][2]fastq.NamedReader{{
				{Name: "r1.fastq", R: bytes.NewReader(plain[0])}, {Name: "r2.fastq", R: bytes.NewReader(plain[1])},
			}}, ds.w.ShardReads)
			if err != nil {
				return err
			}
		}
		batches, err = drain(src)
		return err
	})
	if err != nil {
		return err
	}
	s.add("fastq.scan_ms", tr.totalMS("fastq.scan"))
	s.add("fastq.scan_mbps", mbps(int(ds.plainBytes), tr.totalMS("fastq.scan")))

	if ds.w.Paired {
		spilled := 0
		err := tr.in("reorder.sort", root, -1, func(int) error {
			stage, err := reorder.NewStage(&sliceSource{batches: batches}, ds.reorderConfig(tmp))
			if err != nil {
				return err
			}
			defer stage.Close()
			batches, err = drain(stage)
			spilled = stage.SpilledRuns()
			return err
		})
		if err != nil {
			return err
		}
		s.add("reorder.sort_ms", tr.totalMS("reorder.sort"))
		s.add("reorder.spilled_runs", float64(spilled))
	}

	// The per-shard codec settings shard's writer derives from its options:
	// consensus at the container level, one mapper shared by every shard.
	blockOpt := ds.options(1).Core
	blockOpt.EmbedConsensus = false
	blockOpt.Workers = 1
	err = tr.in("mapper.index", root, -1, func(int) (err error) {
		blockOpt.SharedMapper, err = mapper.New(ds.ref, blockOpt.Mapper)
		return err
	})
	if err != nil {
		return err
	}

	var exact, unmapped, bases, dnaBytes, qualBytes, headerBytes int
	for i, b := range batches {
		quals := make([][]byte, len(b.Records))
		names := make([]string, len(b.Records))
		var cid int
		err := tr.in("core.compress", root, i, func(id int) error {
			cid = id
			enc, err := core.Compress(&fastq.ReadSet{Records: b.Records}, blockOpt)
			if err == nil {
				dnaBytes += enc.Stats.DNABytes
			}
			return err
		})
		if err != nil {
			return err
		}
		for j := range b.Records {
			rec := &b.Records[j]
			id := tr.begin("mapper.map", cid, i)
			aln := blockOpt.SharedMapper.Map(rec.Seq)
			tr.end(id)
			switch {
			case !aln.Mapped:
				unmapped++
			case aln.NumMismatches() == 0:
				exact++
			}
			quals[j], names[j] = rec.Qual, rec.Header
			bases += len(rec.Seq)
			r.scores += len(rec.Qual)
		}
		r.reads += len(b.Records)
		err = tr.in("qual.compress", cid, i, func(int) error {
			qs, err := qual.Compress(quals)
			qualBytes += len(qs)
			return err
		})
		if err != nil {
			return err
		}
		err = tr.in("headers.compress", cid, i, func(int) error {
			hb, err := headers.Compress(names)
			headerBytes += len(hb)
			return err
		})
		if err != nil {
			return err
		}
	}
	if r.reads != ds.digest.Records {
		return fmt.Errorf("the scanner returned %d records, the input has %d", r.reads, ds.digest.Records)
	}
	reads := float64(r.reads)
	s.add("fastq.records", reads)
	s.add("mapper.index_ms", tr.totalMS("mapper.index"))
	s.add("mapper.map_ms", tr.totalMS("mapper.map"))
	s.add("mapper.map_us_per_read", tr.totalMS("mapper.map")*1e3/reads)
	s.add("mapper.exact_frac", float64(exact)/reads)
	s.add("mapper.unmapped_frac", float64(unmapped)/reads)
	s.add("qual.compress_ms", tr.totalMS("qual.compress"))
	s.add("qual.compress_mbps", mbps(r.scores, tr.totalMS("qual.compress")))
	s.add("qual.bits_per_score", 8*float64(qualBytes)/float64(r.scores))
	s.add("headers.compress_ms", tr.totalMS("headers.compress"))
	s.add("headers.bytes_per_read", float64(headerBytes)/reads)
	s.add("core.compress_ms", tr.totalMS("core.compress"))
	s.add("core.compress_self_ms", tr.selfMS("core.compress"))
	s.add("core.dna_bits_per_base", 8*float64(dnaBytes)/float64(bases))
	leaves := tr.totalMS("pargz.gunzip") + tr.totalMS("fastq.scan") + tr.totalMS("reorder.sort") +
		tr.totalMS("mapper.index") + tr.totalMS("core.compress")
	s.add("shard.ingest_self_ms", r.ingest1MS-leaves)
	s.add("trace.coverage_ingest", leaves/r.ingest1MS)
	return nil
}

// decodeLayers takes the container back apart: shard.Open → per shard
// {Container.Block, core.Decompress; then qual.Decompress and
// headers.Decompress on the shard's re-encoded streams, as children of the
// core.Decompress span; ReadSet.Write} → the restorer, when reordered.
func (r *round) decodeLayers() error {
	p, ds, tr, s := r.p, r.p.ds, r.tr, r.s
	root := tr.begin("layers.decode", -1, -1)
	defer tr.end(root)

	var c *shard.Container
	err := tr.in("shard.open", root, -1, func(int) (err error) {
		c, err = shard.Open(bytes.NewReader(p.container), int64(len(p.container)))
		return err
	})
	if err != nil {
		return err
	}
	decoded := make([]*fastq.ReadSet, c.NumShards())
	for i := range decoded {
		var blk []byte
		err := tr.in("shard.block", root, i, func(int) (err error) {
			blk, err = c.Block(i)
			return err
		})
		if err != nil {
			return err
		}
		var did int
		err = tr.in("core.decompress", root, i, func(id int) (err error) {
			did = id
			decoded[i], err = core.Decompress(blk, c.Consensus)
			return err
		})
		if err != nil {
			return err
		}
		// Re-encode the quality and header streams as the block holds them
		// (stored order), then time decoding each alone.
		rs := decoded[i]
		quals := make([][]byte, len(rs.Records))
		lengths := make([]int, len(rs.Records))
		names := make([]string, len(rs.Records))
		for j := range rs.Records {
			quals[j], lengths[j], names[j] = rs.Records[j].Qual, len(rs.Records[j].Qual), rs.Records[j].Header
		}
		qs, err := qual.Compress(quals)
		if err != nil {
			return err
		}
		err = tr.in("qual.decompress", did, i, func(int) error {
			_, err := qual.Decompress(qs, lengths)
			return err
		})
		if err != nil {
			return err
		}
		hb, err := headers.Compress(names)
		if err != nil {
			return err
		}
		err = tr.in("headers.decompress", did, i, func(int) error {
			_, err := headers.Decompress(hb)
			return err
		})
		if err != nil {
			return err
		}
		err = tr.in("fastq.format", root, i, func(int) error {
			return decoded[i].Write(&countingWriter{})
		})
		if err != nil {
			return err
		}
	}
	if ds.w.Paired {
		emitted := 0
		err := tr.in("reorder.restore", root, -1, func(int) error {
			rest := reorder.NewRestorer(ds.sortConfig(r.cfg.tmpDir()))
			defer rest.Close()
			pos := 0
			for _, rs := range decoded {
				for j := range rs.Records {
					if err := rest.Add(c.Index.Perm[pos], rs.Records[j]); err != nil {
						return err
					}
					pos++
				}
			}
			return rest.Emit(func(*fastq.Record) error { emitted++; return nil })
		})
		if err != nil {
			return err
		}
		if emitted != r.reads {
			return fmt.Errorf("the restorer emitted %d records of %d", emitted, r.reads)
		}
		s.add("reorder.restore_ms", tr.totalMS("reorder.restore"))
	}
	s.add("shard.open_ms", tr.totalMS("shard.open"))
	s.add("shard.block_crc_ms", tr.totalMS("shard.block"))
	s.add("core.decompress_ms", tr.totalMS("core.decompress"))
	s.add("core.decompress_self_ms", tr.selfMS("core.decompress"))
	s.add("qual.decompress_ms", tr.totalMS("qual.decompress"))
	s.add("qual.decompress_mbps", mbps(r.scores, tr.totalMS("qual.decompress")))
	s.add("headers.decompress_ms", tr.totalMS("headers.decompress"))
	s.add("fastq.format_ms", tr.totalMS("fastq.format"))
	leaves := tr.totalMS("shard.open") + tr.totalMS("shard.block") + tr.totalMS("core.decompress") +
		tr.totalMS("fastq.format") + tr.totalMS("reorder.restore")
	s.add("trace.coverage_decode", leaves/r.decode1MS)
	return nil
}

// steadyRequestsPerShard sizes the traced steady phase: each client sends this
// many requests per shard of the container.
const steadyRequestsPerShard = 25

// serving traces the three serving phases, a span per request.
func (r *round) serving() error {
	p, tr, s, t := r.p, r.tr, r.s, r.t
	root := tr.begin("serve", -1, -1)
	defer tr.end(root)

	// The decode path without HTTP, every shard cold.
	_, err := onFreshServer(p.container, p.ref, tr, root, func(c *client) {
		for i := range p.ref.lens {
			t.op(tr.in("serve.decoded_shard", root, i, func(int) error {
				body, err := c.s.srv.DecodedShardOf(containerName, i)
				if err == nil && !p.ref.check(i, body) {
					err = fmt.Errorf("DecodedShardOf(%d) differs from the reference", i)
				}
				return err
			}))
		}
	})
	if err != nil {
		return err
	}
	direct := medianOf(tr.durationsMS("serve.decoded_shard"))
	s.add("serve.decoded_shard_ms", direct)

	// Cold sweeps over HTTP on fresh servers; the last server also gets a
	// second sweep, all hits.
	var cold, warm []float64
	for t0, last := time.Now(), false; !last; {
		sweeps := 1
		cl, err := onFreshServer(p.container, p.ref, tr, root, func(c *client) {
			c.sweep()
			cold = append(cold, c.latencies...)
			if last = time.Since(t0) >= r.cfg.quantum; last {
				c.latencies = c.latencies[:0]
				c.sweep()
				warm = c.latencies
				sweeps = 2
			}
		})
		if err != nil {
			return err
		}
		t.requests(sweeps*len(p.ref.lens), cl.failed)
	}
	sort.Float64s(cold)
	s.add("serve.http_overhead_ms", quantile(cold, 0.5)-direct)
	s.add("serve.cold_p99_ms", quantile(cold, 0.99))
	s.add("serve.warm_p50_ms", medianOf(warm))

	// Steady: a fresh server with the workload's cache share and a fixed
	// number of requests per client, so that the counters compare across runs.
	steady, err := startServer(p.container, p.cacheBytes(), p.workers)
	if err != nil {
		return err
	}
	defer steady.close()
	load := newZipfClients(steady, p.ref, p.workers, r.cfg.seed, tr, root)
	load.run(0, steadyRequestsPerShard*len(p.ref.lens))
	lat, failed := load.drain()
	t.requests(len(lat)+failed, failed)
	st := steady.srv.Stats()
	s.add("serve.steady_p50_ms", medianOf(lat))
	s.add("serve.cache_hit_ratio", st.HitRatio)
	s.add("serve.decodes", float64(st.Decodes))
	s.add("serve.deduped_decodes", float64(st.Deduped))
	s.add("serve.evictions", float64(st.Evictions))
	return nil
}
