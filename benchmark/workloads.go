package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"

	"sage/internal/fastq"
	"sage/internal/genome"
	"sage/internal/pargz"
	"sage/internal/reorder"
	"sage/internal/shard"
	"sage/internal/simulate"
)

// workload describes one set of inputs and the path they take through the
// program. Sizes are for scale 1, the scale BENCHMARK.json runs at; the test
// shrinks GenomeLen through config.scale.
type workload struct {
	Name string
	Why  string
	// Long selects the nanopore-like simulator (RS4 parameters of
	// internal/bench, copied here); otherwise Illumina-like (RS2).
	Long      bool
	GenomeLen int
	Depth     float64
	// ShardReads is the shard cut point handed to the reader and the writer.
	ShardReads int
	// Paired renames the reads p.N/1, p.N/2, hands them in as two BGZF
	// files, ingests through the clump-reorder stage and decodes back to
	// original order under SortBudget.
	Paired     bool
	SortBudget int64
	// CacheShare is the steady server's decoded-shard cache budget as a share
	// of the container's decoded size.
	CacheShare float64
}

var workloads = []workload{
	{
		Name:      "short_plain",
		Why:       "mapper is ~85% of ingest and qual+core decode nearly all of decode: a mapper gain shows in ingest_mbps, a decoder gain in decode_mbps, neither may move the other or ratio",
		GenomeLen: 96000, Depth: 18, ShardReads: 256, CacheShare: 0.5,
	},
	{
		Name: "long_plain",
		Why:  "same layers used differently: long noisy reads, indel blocks, chimeras and chaining, noisy quality strings; a short-read fast path does nothing here and a short-read gain that costs long reads shows",
		Long: true, GenomeLen: 160000, Depth: 7, ShardReads: 8, CacheShare: 0.5,
	},
	{
		Name:      "paired_gz_reorder",
		Why:       "only workload where pargz, paired fastq readers and reorder (spilling stage and restorer) work; writes format v5 through the second way into shard, which a one-entry-point refactor must leave unmoved",
		GenomeLen: 96000, Depth: 18, ShardReads: 256, Paired: true, SortBudget: 1 << 20, CacheShare: 0.5,
	},
	{
		Name:      "serve_zipf",
		Why:       "many small shards and a cache a quarter of the decoded size: decode does all of the cold phase and a third of the steady phase, cache, singleflight, pool and HTTP the rest",
		GenomeLen: 96000, Depth: 18, ShardReads: 96, CacheShare: 0.25,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// recordDigest is the order-insensitive check value of a FASTQ text: the sum
// mod 2^64 of a 64-bit hash of every four-line record, plus the record count.
// core stores a shard's reads in matching-position order, so DecompressTo is
// set-equal, not byte-equal, to its input.
type recordDigest struct {
	Sum     uint64 `json:"sum"`
	Records int    `json:"records"`
	Bytes   int64  `json:"bytes"`
}

// digestWriter computes a recordDigest of the FASTQ text written to it.
type digestWriter struct {
	d    recordDigest
	rec  []byte // the bytes of the record under way
	line int    // newlines seen in rec
}

func (w *digestWriter) Write(p []byte) (int, error) {
	n := len(p)
	w.d.Bytes += int64(n)
	for len(p) > 0 {
		i := bytes.IndexByte(p, '\n')
		if i < 0 {
			w.rec = append(w.rec, p...)
			break
		}
		w.rec = append(w.rec, p[:i+1]...)
		p = p[i+1:]
		if w.line++; w.line == 4 {
			h := fnv.New64a()
			h.Write(w.rec)
			w.d.Sum += h.Sum64()
			w.d.Records++
			w.rec, w.line = w.rec[:0], 0
		}
	}
	return n, nil
}

// digest returns the digest so far; a trailing partial record counts as one
// more record so that truncation never goes unseen.
func (w *digestWriter) digest() recordDigest {
	d := w.d
	if len(w.rec) > 0 {
		h := fnv.New64a()
		h.Write(w.rec)
		d.Sum += h.Sum64()
		d.Records++
	}
	return d
}

func digestOf(text []byte) recordDigest {
	var w digestWriter
	w.Write(text)
	return w.digest()
}

// dataset is a generated workload input. The program under test is handed
// only inputs (and the reference as consensus); the rest is what the verifier
// compares its outputs to.
type dataset struct {
	w      workload
	ref    genome.Seq
	inputs [][]byte // one plain FASTQ, or the R1 and R2 BGZF files
	// plainBytes is the uncompressed FASTQ text size, the MB of every MB/s.
	plainBytes int64
	digest     recordDigest
	// sha is the SHA-256 of the plain text in input order (interleaved for
	// paired input), what an original-order decode must reproduce.
	sha [sha256.Size]byte
}

// inputDigests names the inputs in the result's _meta so that two runs can
// prove they saw the same bytes.
func (d *dataset) inputDigests() []string {
	out := make([]string, len(d.inputs))
	for i, in := range d.inputs {
		s := sha256.Sum256(in)
		out[i] = hex.EncodeToString(s[:])
	}
	return out
}

// generate builds the workload's dataset from seed. The same seed gives the
// same bytes; scale multiplies the genome length (and with it the read count).
func generate(w workload, seed int64, scale float64) (*dataset, error) {
	glen := int(float64(w.GenomeLen) * scale)
	if glen < 4000 {
		glen = 4000
	}
	w.SortBudget = int64(float64(w.SortBudget) * scale) // still spills when shrunk
	// short_plain, paired_gz_reorder and serve_zipf share their reads; the
	// long-read stream is offset so it never repeats the short genome.
	if w.Long {
		seed += 1 << 32
	}
	rng := rand.New(rand.NewSource(seed))
	ref := genome.Random(rng, glen)
	donor, _ := genome.Donor(rng, ref, genome.HumanLikeProfile())
	sim := simulate.New(rng, donor)
	var rs *fastq.ReadSet
	var err error
	if w.Long {
		p := simulate.DefaultLongProfile()
		p.MeanLen, p.MaxLen = 5000, 16000
		p.ErrRate = 0.10
		p.ChimeraRate = 0.05
		rs, err = sim.LongReads(max(8, int(float64(glen)*w.Depth/float64(p.MeanLen))), p)
	} else {
		p := simulate.DefaultShortProfile()
		n := max(64, int(float64(glen)*w.Depth/float64(p.ReadLen)))
		rs, err = sim.ShortReads(n-n%2, p)
	}
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", w.Name, err)
	}
	if w.Paired {
		for i := range rs.Records {
			rs.Records[i].Header = fmt.Sprintf("p.%d/%d", i/2, i%2+1)
		}
	}
	plain := rs.Bytes()
	d := &dataset{
		w: w, ref: ref, inputs: [][]byte{plain},
		plainBytes: int64(len(plain)), digest: digestOf(plain), sha: sha256.Sum256(plain),
	}
	if !w.Paired {
		return d, nil
	}
	d.inputs = nil
	for mate := 0; mate < 2; mate++ {
		var gz bytes.Buffer
		zw := pargz.NewWriter(&gz)
		var line []byte
		for i := mate; i < len(rs.Records); i += 2 {
			line = rs.Records[i].AppendText(line[:0])
			if _, err := zw.Write(line); err != nil {
				return nil, fmt.Errorf("generating %s: %w", w.Name, err)
			}
		}
		if err := zw.Close(); err != nil {
			return nil, fmt.Errorf("generating %s: %w", w.Name, err)
		}
		d.inputs = append(d.inputs, gz.Bytes())
	}
	return d, nil
}

// options returns the writer settings of the workload: the reference as
// embedded consensus, everything lossless.
func (d *dataset) options(workers int) shard.Options {
	opt := shard.DefaultOptions(d.ref)
	opt.ShardReads = d.w.ShardReads
	opt.Workers = workers
	return opt
}

// ingested is what one ingest of the dataset produced.
type ingested struct {
	container []byte
	stats     *shard.Stats
	spilled   int // external-sort runs the reorder stage spilled
}

// ingest takes the input bytes to a container held in memory: fastq.Sniff
// → batch (or paired) reader → [reorder stage] → shard.CompressPipeline.
func (d *dataset) ingest(workers int, tmpDir string) (*ingested, error) {
	opt := d.options(workers)
	readers := make([]io.Reader, len(d.inputs))
	for i, in := range d.inputs {
		r, err := fastq.Sniff(bytes.NewReader(in), fastq.SniffOptions{Threads: workers})
		if err != nil {
			return nil, fmt.Errorf("sniffing input %d: %w", i, err)
		}
		defer fastq.CloseSniffed(r)
		readers[i] = r
	}
	var buf bytes.Buffer
	if !d.w.Paired {
		st, err := shard.CompressPipeline(fastq.NewBatchReader(readers[0], opt.ShardReads), &buf, opt)
		if err != nil {
			return nil, err
		}
		return &ingested{container: buf.Bytes(), stats: st}, nil
	}
	pr, err := fastq.NewPairedReader([][2]fastq.NamedReader{{
		{Name: "r1.fastq.gz", R: readers[0]}, {Name: "r2.fastq.gz", R: readers[1]},
	}}, opt.ShardReads)
	if err != nil {
		return nil, err
	}
	stage, err := reorder.NewStage(pr, d.reorderConfig(tmpDir))
	if err != nil {
		return nil, err
	}
	defer stage.Close()
	st, err := shard.CompressPipeline(stage, &buf, opt)
	if err != nil {
		return nil, err
	}
	return &ingested{container: buf.Bytes(), stats: st, spilled: stage.SpilledRuns()}, nil
}

func (d *dataset) reorderConfig(tmpDir string) reorder.Config {
	return reorder.Config{
		Mode: reorder.ModeClump, Paired: true, BatchSize: d.w.ShardReads,
		Sort: d.sortConfig(tmpDir),
	}
}

func (d *dataset) sortConfig(tmpDir string) reorder.SortConfig {
	return reorder.SortConfig{MemBudget: d.w.SortBudget, TmpDir: tmpDir}
}

// decode streams the whole container back to FASTQ text: stored order for the
// identity workloads, exact input order for the reordered one.
func (d *dataset) decode(container []byte, w io.Writer, workers int, tmpDir string) error {
	c, err := shard.Open(bytes.NewReader(container), int64(len(container)))
	if err != nil {
		return err
	}
	if d.w.Paired {
		return c.DecompressOriginalTo(w, nil, workers, d.sortConfig(tmpDir))
	}
	return c.DecompressTo(w, nil, workers)
}

// verifyDecode decodes the container once into the workload's check: the
// order-insensitive record digest for identity order, SHA-256 of the text for
// original order.
func (d *dataset) verifyDecode(container []byte, workers int, tmpDir string) error {
	if d.w.Paired {
		h := sha256.New()
		if err := d.decode(container, h, workers, tmpDir); err != nil {
			return err
		}
		if !bytes.Equal(h.Sum(nil), d.sha[:]) {
			return fmt.Errorf("original-order decode differs from the interleaved input (SHA-256)")
		}
		return nil
	}
	var dw digestWriter
	if err := d.decode(container, &dw, workers, tmpDir); err != nil {
		return err
	}
	if got := dw.digest(); got != d.digest {
		return fmt.Errorf("decoded records differ from the input: got %+v, want %+v", got, d.digest)
	}
	return nil
}

// countingWriter is the sink of the timed decode passes.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}
