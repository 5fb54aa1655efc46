package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sage/internal/shard"
)

// config is what one run is parameterised by. BENCHMARK.json runs at scale 1
// with the default quantum and round floor; the test shrinks all three.
type config struct {
	seed    int64
	seconds float64
	outDir  string
	// scale multiplies every workload's genome length.
	scale float64
	// quantum is the length of a round's decode, cold and steady slices (the
	// ingest slice is one whole ingest, however long it takes).
	quantum time.Duration
	// minRounds is the floor on timed rounds, whatever seconds says.
	minRounds int
	// setupReps is how many times each part of set-up is repeated.
	setupReps int
}

func (c config) tmpDir() string { return filepath.Join(c.outDir, "tmp") }

// another reports whether to run one more round: below the floor always,
// otherwise while a round of the average length so far still ends within
// the budget.
func (c config) another(rounds int, start time.Time) bool {
	if rounds < c.minRounds {
		return true
	}
	if rounds == 0 {
		return c.seconds > 0
	}
	elapsed := time.Since(start).Seconds()
	return elapsed+elapsed/float64(rounds) <= c.seconds
}

// tally counts operations and the ones whose output was wrong. An operation
// is one ingest, one decode pass, or one HTTP request.
type tally struct {
	attempted, failed int
	messages          []string // the first few failures, for the log
}

func (t *tally) op(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		t.note(err.Error())
	}
}

// requests adds n HTTP requests of which failed had a wrong answer.
func (t *tally) requests(n, failed int) {
	t.attempted += n
	t.failed += failed
	if failed > 0 {
		t.note(fmt.Sprintf("%d of %d responses were not 200 with the reference length and CRC-32", failed, n))
	}
}

func (t *tally) note(msg string) {
	if len(t.messages) < 8 {
		t.messages = append(t.messages, msg)
	}
}

// prepared is a workload after set-up: the dataset, one verified container
// and the per-shard reference for served responses.
type prepared struct {
	ds        *dataset
	container []byte
	stats     *shard.Stats
	ref       *shardRef
	setupS    []float64 // one value per set-up repetition
	workers   int
}

// cacheBytes is the steady server's cache budget.
func (p *prepared) cacheBytes() int64 {
	return int64(p.ds.w.CacheShare * float64(p.ref.total))
}

// timedIngest runs one ingest and returns how long it took. The check — the
// container must be, byte for byte, the one set-up verified — comes after the
// clock has stopped.
func (p *prepared) timedIngest(workers int, tmpDir string) (time.Duration, error) {
	t0 := time.Now()
	in, err := p.ds.ingest(workers, tmpDir)
	d := time.Since(t0)
	if err == nil && !bytes.Equal(in.container, p.container) {
		err = fmt.Errorf("ingest at %d workers wrote a container that differs from the verified one", workers)
	}
	return d, err
}

// timedDecode runs one decode pass into a counting writer and returns how
// long it took; the pass must write exactly the input's byte count.
func (p *prepared) timedDecode(workers int, tmpDir string) (time.Duration, error) {
	var cw countingWriter
	t0 := time.Now()
	err := p.ds.decode(p.container, &cw, workers, tmpDir)
	d := time.Since(t0)
	if err == nil && cw.n != p.ds.plainBytes {
		err = fmt.Errorf("decode at %d workers wrote %d bytes, the input has %d", workers, cw.n, p.ds.plainBytes)
	}
	return d, err
}

// prepare runs the set-up cfg.setupReps times and keeps the last: generate the
// dataset, and — once a first, untimed ingest has produced a container to
// serve — open it, build the per-shard reference and start a server. The
// untimed ingest also lets lazy initialisation finish before anything is
// timed; it and its verifying decode count as operations.
func prepare(cfg config, w workload, t *tally) (*prepared, error) {
	if err := os.MkdirAll(cfg.tmpDir(), 0o755); err != nil {
		return nil, err
	}
	p := &prepared{workers: runtime.NumCPU()}
	gen := make([]float64, cfg.setupReps)
	for r := range gen {
		t0 := time.Now()
		ds, err := generate(w, cfg.seed, cfg.scale)
		if err != nil {
			return nil, err
		}
		gen[r] = time.Since(t0).Seconds()
		if p.ds != nil && (ds.digest != p.ds.digest || ds.sha != p.ds.sha) {
			return nil, fmt.Errorf("%s: seed %d generated two different datasets", w.Name, cfg.seed)
		}
		p.ds = ds
	}

	in, err := p.ds.ingest(p.workers, cfg.tmpDir())
	t.op(err)
	if err != nil {
		return nil, fmt.Errorf("%s: first ingest: %w", w.Name, err)
	}
	p.container, p.stats = in.container, in.stats
	t.op(p.ds.verifyDecode(p.container, p.workers, cfg.tmpDir()))
	if w.Paired && in.spilled == 0 {
		return nil, fmt.Errorf("%s: the reorder stage did not spill under a %d-byte budget", w.Name, w.SortBudget)
	}

	for r := range gen {
		t0 := time.Now()
		srv, err := startServer(p.container, 1<<30, 1)
		if err != nil {
			return nil, fmt.Errorf("%s: starting a server: %w", w.Name, err)
		}
		ref, err := buildShardRef(srv.c)
		srv.close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		p.setupS = append(p.setupS, gen[r]+time.Since(t0).Seconds())
		p.ref = ref
	}
	if p.ref.total != p.ds.plainBytes {
		return nil, fmt.Errorf("%s: the shards decode to %d bytes, the input has %d", w.Name, p.ref.total, p.ds.plainBytes)
	}
	return p, nil
}

// runEndToEnd measures the workload with tracing off. After set-up it runs
// rounds until cfg.seconds have passed (at least cfg.minRounds); each round is
// one ingest, a slice of decode passes, a slice of cold sweeps on fresh
// servers and a slice of the steady Zipf load, so that a slow period of the
// machine spreads over every metric instead of landing on one. Every output is
// checked outside the timed regions.
func runEndToEnd(cfg config, w workload) (*result, error) {
	var t tally
	p, err := prepare(cfg, w, &t)
	if err != nil {
		return nil, err
	}
	ds, tmp := p.ds, cfg.tmpDir()
	mb := float64(ds.plainBytes) / 1e6
	s := samples{"setup_s": p.setupS}

	// The steady server lives across rounds; its first slice fills the cache
	// and is not measured.
	steady, err := startServer(p.container, p.cacheBytes(), p.workers)
	if err != nil {
		return nil, err
	}
	defer steady.close()
	load := newZipfClients(steady, p.ref, p.workers, cfg.seed, nil, -1)
	load.run(cfg.quantum, 0)
	lat, failed := load.drain()
	t.requests(len(lat)+failed, failed)

	start := time.Now()
	rounds := 0
	for ; cfg.another(rounds, start); rounds++ {
		// Ingest: the input bytes to a whole container in memory.
		runtime.GC()
		d, err := p.timedIngest(p.workers, tmp)
		t.op(err)
		s.add("ingest_mbps", mb/d.Seconds())

		// Decode: whole passes over the in-memory container.
		runtime.GC()
		passes := 0
		t0 := time.Now()
		for time.Since(t0) < cfg.quantum {
			_, err := p.timedDecode(p.workers, tmp)
			t.op(err)
			passes++
		}
		s.add("decode_mbps", float64(passes)*mb/time.Since(t0).Seconds())
		t.op(ds.verifyDecode(p.container, p.workers, tmp))

		// Cold: fresh servers, one client, one in-order sweep each, so
		// every request is a decode.
		for t0 = time.Now(); time.Since(t0) < cfg.quantum; {
			c, err := onFreshServer(p.container, p.ref, nil, -1, (*client).sweep)
			if err != nil {
				return nil, err
			}
			s["serve_cold_ms"] = append(s["serve_cold_ms"], c.latencies...)
			t.requests(len(p.ref.lens), c.failed)
		}

		// Steady: nproc closed-loop clients, Zipf over the shards, the
		// cache holding the workload's share of the decoded size.
		wall := load.run(2*cfg.quantum, 0)
		lat, failed := load.drain()
		t.requests(len(lat)+failed, failed)
		s.add("serve_rps", float64(len(lat)+failed)/wall.Seconds())
		s["serve_ms"] = append(s["serve_ms"], lat...)
	}

	s.add("ratio", float64(ds.plainBytes)/float64(len(p.container)))
	s["serve_cold_p50_ms"], s["serve_cold_p90_ms"] = s["serve_cold_ms"], s["serve_cold_ms"]
	s["serve_p99_ms"] = s["serve_ms"]
	res := newResult(cfg, w, p, &t, rounds)
	res.EndToEnd = report(endToEnd, s, map[string]float64{
		"serve_cold_p50_ms": 0.50, "serve_cold_p90_ms": 0.90, "serve_p99_ms": 0.99,
	})
	return res, nil
}
