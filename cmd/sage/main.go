// Command sage is the command-line front end of the SAGe codec:
//
//	sage simulate   generate a synthetic read set (+ reference)
//	sage compress   FASTQ file(s) -> one .sage container; many inputs
//	                (lane splits, or -paired R1/R2 mates) become a single
//	                sharded container with a source manifest
//	sage recompress gzipped FASTQ archive(s) -> one .sage container,
//	                decoding member-parallel (bgzip/BGZF) or pipelined
//	                (generic gzip) — the migration path
//	sage decompress .sage container -> FASTQ
//	sage inspect    show a container's streams, tables and statistics
//	sage verify     check two FASTQ files describe the same read multiset
//	sage serve      serve a sharded container over HTTP, shard by shard
//	sage instorage  place a sharded container on the modeled SSD and
//	                dispatch its shards to per-channel scan units
//
// Compression needs a consensus: pass -ref, or use -denovo to assemble
// one from the reads (§2.2: "a user-provided reference, or a de-duplicated
// string derived from the reads"). Every container embeds it, so the
// read-side commands take no -ref.
//
// Exit codes: 0 on success, 1 on runtime failure, 2 on a usage error
// (unknown command, bad flag, negative -threads, trailing arguments on
// commands that take none — compress consumes them as input files).
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"math/rand"
	"time"

	"sage/internal/bench"
	"sage/internal/consensus"
	"sage/internal/core"
	"sage/internal/fastq"
	"sage/internal/genome"
	"sage/internal/instorage"
	"sage/internal/obs"
	"sage/internal/pargz"
	"sage/internal/reorder"
	"sage/internal/serve"
	"sage/internal/shard"
	"sage/internal/simulate"
	"sage/internal/ssd"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "simulate":
		err = cmdSimulate(os.Args[2:])
	case "compress":
		err = cmdCompress(os.Args[2:])
	case "recompress":
		err = cmdRecompress(os.Args[2:])
	case "decompress":
		err = cmdDecompress(os.Args[2:])
	case "filter":
		err = cmdFilter(os.Args[2:])
	case "inspect":
		err = cmdInspect(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "instorage":
		err = cmdInstorage(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "sage: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sage: %v\n", err)
		if isUsageError(err) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError marks command-line mistakes (vs runtime failures) so main
// can exit 2, matching the flag package's own convention.
type usageError struct{ error }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

func isUsageError(err error) bool {
	var ue usageError
	return errors.As(err, &ue)
}

// parseFlags runs fs over args and applies the validation every
// subcommand shares: flag errors and unknown trailing arguments are
// usage errors reported once through main (the FlagSets use
// ContinueOnError with discarded output so flag doesn't double-print).
func parseFlags(fs *flag.FlagSet, args []string) error {
	rest, err := parseFlagsArgs(fs, args)
	if err != nil {
		return err
	}
	if len(rest) > 0 {
		return usagef("%s: unexpected arguments %q", fs.Name(), rest)
	}
	return nil
}

// parseFlagsArgs is parseFlags for subcommands that consume positional
// arguments (compress takes its input files that way); it returns them
// instead of rejecting them.
func parseFlagsArgs(fs *flag.FlagSet, args []string) ([]string, error) {
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fmt.Fprintf(os.Stderr, "usage of sage %s:\n", fs.Name())
			fs.SetOutput(os.Stderr)
			fs.PrintDefaults()
			os.Exit(0)
		}
		return nil, usageError{fmt.Errorf("%s: %w", fs.Name(), err)}
	}
	return fs.Args(), nil
}

// checkThreads rejects negative worker counts (0 means "all CPUs").
func checkThreads(name string, n int) error {
	if n < 0 {
		return usagef("%s: -threads must be >= 0 (0 = all CPUs), got %d", name, n)
	}
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: sage <command> [flags]

commands:
  simulate    -out reads.fastq -ref ref.txt [-long] [-genome 200000] [-reads 2000] [-seed 1]
  compress    [flags] input.fastq [input2.fastq ...]   (or -in reads.fastq)
              -out reads.sage (-ref ref.txt | -denovo) [-paired] [-no-quality]
              [-no-headers] [-shard-reads 4096] [-threads N]
              [-reorder [-sort-mem MiB] [-tmpdir DIR]]
  recompress  [flags] archive.fq.gz [archive2.fq.gz ...]
              -ref ref.txt [-out reads.sage] [-paired] [-shard-reads 4096]
              [-threads N] [-reorder [-sort-mem MiB] [-tmpdir DIR]]
  decompress  -in reads.sage -out reads.fastq [-threads N]
              [-original-order [-sort-mem MiB] [-tmpdir DIR]]
  filter      -in reads.sage [-out match.fastq] [-threads N]
              [-min-avgphred F] [-max-ee F] [-min-len N] [-max-len N]
              [-min-gc F] [-max-gc F] [-kmer SEQ]
  inspect     -in reads.sage
  verify      -a a.fastq -b b.fastq
  serve       -in reads.sage [-in more.sage | -in dir/] [-addr :8844]
              [-cache-bytes N] [-threads N]
              [-pprof-addr :8845] [-slow-ms N]
  instorage   -in reads.sage [-channels 8]

compress emits a sharded, seekable container of -shard-reads reads per
shard (> 0), whose shards are compressed and decompressed in parallel on
-threads workers (0 = all CPUs). With -ref, compression streams the
input file batch by batch instead of loading it whole. Single-block
containers written by older releases still decompress and inspect.

compress accepts many inputs (lane splits) and packs them all into ONE
sharded container with file-aware shard boundaries — no shard spans two
source files — and a per-shard source manifest (container format v3,
docs/FORMAT.md). With -paired, inputs are R1 R2 mate files taken
pairwise: records are interleaved mate by mate, mate names are
validated, and both mates always land in the same shard. Multi-file
ingest streams and therefore needs -ref. Example:

  sage compress -paired -ref ref.txt -out run.sage lane1_R1.fq lane1_R2.fq lane2_R1.fq lane2_R2.fq

compress inputs may be gzipped (detected by magic bytes, not file
extension); plain and gzipped files can be mixed freely, including in
-paired runs. bgzip/BGZF inputs decode member-parallel on -threads
workers; any other gzip decodes on a pipelined readahead goroutine, so
decompression overlaps parsing either way.

recompress is the gzip->sage migration path: it streams gzipped FASTQ
archives straight into one sharded container (the very ingest pipeline
compress runs, always with a source manifest; -ref required) and
reports the ratio against both the raw FASTQ and the gzip input, the
decode throughput, each input's decode tier, and a stage-attribution
table proving the decoder was never the critical path. Example:

  sage recompress -ref ref.txt -out run.sage lane1.fq.gz lane2.fq.gz

compress -reorder clump-sorts the reads by similarity (minimizer
MinHash) before sharding, so similar reads share shards and the
per-shard codec compresses them harder (container format v5). The sort
is out of core: at most -sort-mem MiB of reads are held in memory,
with sorted runs spilled under -tmpdir and k-way merged. The container
records the inverse permutation, so the reordering is fully reversible.
Mate pairs move as one unit and reads never cross source-file
boundaries.

decompress streams sharded containers: shards are decoded on -threads
workers but written in order, so peak memory is a few decoded shards,
never the whole read set. With -original-order each read of a
reordered (v5) container is put back at its place in the input, read
from the stored permutation — no sort, and out of core under the same
-sort-mem/-tmpdir bounds; for identity-order containers the flag is a
free no-op.

serve hosts a registry of sharded containers, each opened lazily (only
indexes are resident). -in repeats, and a directory -in serves every
*.sage inside; each container is routed by base name under
/c/{name}/... (GET /containers lists them). Shard responses
carry Content-Length and an ETag derived from the shard's index crc32,
If-None-Match re-validation answers 304 without touching the
container, and raw blocks honor Range for resumable fetches. Decoded
shards are cached in one LRU bounded by -cache-bytes shared across all
containers; once it is full, a shard is cached only in place of shards
read less often. Concurrent requests for the same cold shard are collapsed
into one decode on a -threads pool.

serve is fully instrumented: every response echoes X-Sage-Request-Id
(the client's, or a minted one), GET /metrics exposes per-endpoint
latency histograms, decode-pool queue-wait/decode histograms, and every
/stats counter in Prometheus text format, -slow-ms logs structured
slow-request lines with per-stage attribution to stderr, and
-pprof-addr serves net/http/pprof on a separate address (keep it
private — it is deliberately not on the data-plane listener).

filter runs a predicate over a sharded container in the compressed
domain (format v4): the per-shard zone maps — length/quality/GC
envelopes and a canonical k-mer sketch — prune shards that provably
cannot match, so those shards are never read or decoded; only the
survivors stream through the decoder. Matching records are written as
FASTQ and a pruning summary goes to stderr. An unset flag places no
constraint; -kmer prunes via the shard sketches and then matches the
exact subsequence.

instorage writes a sharded container onto the modeled SSD with
shard-aligned SAGe_Write placement (shard i on channel i mod
-channels, header/index pages round-robin) and streams every shard
through its channel's Scan/Read-Construction unit, reporting per-shard
flash-read + decode times, the keyed per-channel schedule, a scan-unit
pool sweep, and the flash-read -> scan-decode pipeline recurrence.
Every shard is really read back from the device model and functionally
decoded; payloads are checked against the container's crc32 index.

exit codes: 0 success, 1 runtime failure, 2 usage error.`)
}

func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	out := fs.String("out", "reads.fastq", "output FASTQ path")
	refOut := fs.String("ref", "ref.txt", "output reference path")
	long := fs.Bool("long", false, "simulate nanopore-like long reads instead of short reads")
	genomeLen := fs.Int("genome", 200000, "reference genome length")
	nReads := fs.Int("reads", 2000, "number of reads")
	seed := fs.Int64("seed", 1, "random seed")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	rs, ref, err := simulateSet(*long, *genomeLen, *nReads, *seed)
	if err != nil {
		return err
	}
	if err := os.WriteFile(*refOut, []byte(ref.String()+"\n"), 0o644); err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	err = rs.Write(f)
	// Propagate the close error: on a full disk the last buffered write
	// surfaces here, and a truncated FASTQ must not be reported as
	// success.
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("wrote %d reads (%d bases) to %s; reference (%d bases) to %s\n",
		len(rs.Records), rs.TotalBases(), *out, len(ref), *refOut)
	return nil
}

// publish streams what write produces into out via a temp file renamed
// in, so a failed run never clobbers an existing output. Every container
// the CLI writes, and the FASTQ decompress and filter write to -out, is
// published through here. The publish is crash-safe: the temp file is
// fsynced, then its parent directory (so the temp's directory entry is
// durable), then renamed, then the directory again (so the rename is) —
// a power cut leaves either the old file or the new one, never a torn
// file. Every failure path removes the temp file.
func publish(out string, write func(w io.Writer) error) error {
	tmp := out + ".tmp"
	of, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(of)
	if err == nil {
		err = of.Sync()
	}
	if cerr := of.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = syncDir(filepath.Dir(out))
	}
	if err == nil {
		err = os.Rename(tmp, out)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(out))
}

// writeOutput streams what write produces to stdout when out is empty
// and publishes it to out otherwise.
func writeOutput(out string, write func(w io.Writer) error) error {
	if out == "" {
		return write(os.Stdout)
	}
	return publish(out, write)
}

// ingestPlan says what to ingest and how; openIngest assembles it.
type ingestPlan struct {
	inputs []string
	// paired takes the inputs pairwise as R1 R2 mate files.
	paired bool
	// manifest attributes every shard to its input file; off, the single
	// input is one anonymous stream.
	manifest   bool
	shardReads int
	threads    int
	reorder    bool
	sort       reorder.SortConfig
	// trace, when non-nil, receives the gunzip spans.
	trace *obs.Trace
}

// ingest is the one assembly of the CLI's streaming write path, shared
// by compress and recompress: every input opened and gzip-sniffed by
// magic (a run may mix plain and gzipped lanes, each decoding on its
// own pargz reader bounded by -threads), batched by the reader that
// fits — one stream, file-aware lanes, or interleaved mates — and
// optionally wrapped in the similarity-reorder stage. src is what
// shard.CompressPipeline drains.
type ingest struct {
	src     fastq.BatchSource
	mr      *fastq.MultiReader // nil without a manifest
	files   []*os.File
	readers []io.Reader // readers[i] decodes files[i]
	stage   *reorder.Stage
}

func openIngest(p ingestPlan) (_ *ingest, err error) {
	// The cleanup closes what was built: an error return clears the
	// result, so it must not close that.
	in := &ingest{}
	defer func() {
		if err != nil {
			in.Close()
		}
	}()
	// Manifest names are base names: the container travels, local
	// directory layouts don't. That makes duplicates ambiguous — the
	// manifest and /file/{name}/shards could no longer tell the inputs
	// apart — so reject them up front.
	seen := make(map[string]string, len(p.inputs))
	named := make([]fastq.NamedReader, 0, len(p.inputs))
	for _, path := range p.inputs {
		base := filepath.Base(path)
		if prev, dup := seen[base]; dup {
			return nil, usagef("inputs %s and %s would both be recorded as %q in the source manifest; rename one", prev, path, base)
		}
		seen[base] = path
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		in.files = append(in.files, f)
		r, err := fastq.Sniff(f, fastq.SniffOptions{Name: path, Threads: p.threads, Trace: p.trace})
		if err != nil {
			return nil, err
		}
		in.readers = append(in.readers, r)
		named = append(named, fastq.NamedReader{Name: base, R: r})
	}
	batch := p.shardReads
	switch {
	case !p.manifest:
		in.src = namedSource{fastq.NewBatchReader(in.readers[0], p.shardReads), named[0].Name}
	case p.paired:
		pairs := make([][2]fastq.NamedReader, 0, len(named)/2)
		for i := 0; i+1 < len(named); i += 2 {
			pairs = append(pairs, [2]fastq.NamedReader{named[i], named[i+1]})
		}
		in.mr, err = fastq.NewPairedReader(pairs, p.shardReads)
	default:
		in.mr, err = fastq.NewMultiReader(named, p.shardReads)
	}
	if err != nil {
		return nil, err
	}
	if in.mr != nil {
		in.src, batch = in.mr, in.mr.BatchSize()
	}
	if err := in.wrapReorder(p, batch); err != nil {
		return nil, err
	}
	return in, nil
}

// wrapReorder wraps in.src in the similarity-reorder stage when the plan
// asks for it; batch is the source's shard cut point.
func (in *ingest) wrapReorder(p ingestPlan, batch int) error {
	if !p.reorder {
		return nil
	}
	st, err := reorder.NewStage(in.src, reorder.Config{
		Mode: reorder.ModeClump, BatchSize: batch, Paired: p.paired, Sort: p.sort,
	})
	if err != nil {
		return err
	}
	in.stage, in.src = st, st
	return nil
}

// namedSource names its one input file in parse errors, the way
// MultiReader names the file of each lane.
type namedSource struct {
	fastq.BatchSource
	name string
}

func (s namedSource) Next() (fastq.Batch, error) {
	b, err := s.BatchSource.Next()
	if err != nil && err != io.EOF {
		err = fmt.Errorf("fastq: file %s: %w", s.name, err)
	}
	return b, err
}

// Close releases the reorder spill files, the gzip decode goroutines
// and the input files.
func (in *ingest) Close() {
	if in.stage != nil {
		in.stage.Close()
	}
	for _, r := range in.readers {
		fastq.CloseSniffed(r)
	}
	for _, f := range in.files {
		f.Close()
	}
}

// syncDir fsyncs a directory, making its entries durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func cmdCompress(args []string) error {
	fs := flag.NewFlagSet("compress", flag.ContinueOnError)
	in := fs.String("in", "", "input FASTQ (alternative to positional inputs)")
	out := fs.String("out", "", "output container (default: <first input>.sage)")
	refPath := fs.String("ref", "", "consensus/reference sequence file")
	denovo := fs.Bool("denovo", false, "derive the consensus from the reads (de Bruijn assembly)")
	paired := fs.Bool("paired", false, "treat inputs as paired-end R1 R2 [R1 R2 ...] mate files, interleaved pairwise")
	noQual := fs.Bool("no-quality", false, "discard quality scores")
	noHdr := fs.Bool("no-headers", false, "discard read names")
	shardReads := fs.Int("shard-reads", shard.DefaultShardReads, "reads per shard")
	threads := fs.Int("threads", 0, "compression workers (0 = all CPUs)")
	doReorder := fs.Bool("reorder", false, "clump-sort reads by similarity before sharding (container format v5; decompress -original-order recovers input order)")
	sortMem := fs.Int("sort-mem", 256, "reorder sort memory budget in MiB before spilling runs to disk")
	tmpDir := fs.String("tmpdir", "", "directory for reorder spill files (default: the system temp dir)")
	inputs, err := parseFlagsArgs(fs, args)
	if err != nil {
		return err
	}
	if err := checkThreads("compress", *threads); err != nil {
		return err
	}
	if *shardReads <= 0 {
		return usagef("compress: -shard-reads must be > 0, got %d", *shardReads)
	}
	if *sortMem <= 0 {
		return usagef("compress: -sort-mem must be > 0 MiB, got %d", *sortMem)
	}
	sortCfg := reorder.SortConfig{MemBudget: int64(*sortMem) << 20, TmpDir: *tmpDir}
	// Inputs come positionally (possibly many) or via the classic -in
	// (exactly one) — never both, and never silently dropped.
	if *in != "" {
		if len(inputs) > 0 {
			return usagef("compress: pass inputs either via -in or as arguments, not both (-in %s plus %q)", *in, inputs)
		}
		inputs = []string{*in}
	}
	if len(inputs) == 0 {
		return usagef("compress: at least one input FASTQ is required (-in file, or positional arguments)")
	}
	if *paired && len(inputs)%2 != 0 {
		return usagef("compress: -paired needs an even number of inputs (R1 R2 [R1 R2 ...]), got %d", len(inputs))
	}
	if *out == "" {
		*out = inputs[0] + ".sage"
	}

	// Multi-file (or paired-end) ingest: all inputs stream into one
	// sharded container with file-aware shard boundaries and a source
	// manifest (container format v3, see docs/FORMAT.md).
	manifest := *paired || len(inputs) > 1
	if manifest {
		switch {
		case *denovo:
			return fmt.Errorf("compress: multi-file ingest streams its inputs and needs -ref (-denovo would require the whole read set in memory)")
		case *refPath == "":
			return fmt.Errorf("compress: multi-file ingest needs -ref")
		}
	}

	var (
		rs   *fastq.ReadSet
		cons genome.Seq
	)
	switch {
	case *denovo:
		// The assembly needs the whole read set, parsed once: a FIFO
		// input cannot be read twice.
		if rs, err = readFASTQ(inputs[0]); err != nil {
			return err
		}
		c, err := consensus.FromReads(rs)
		if err != nil {
			return fmt.Errorf("compress: de-novo consensus: %w", err)
		}
		cons = c.Seq
		fmt.Printf("assembled consensus: %d bases in %d unitigs\n", len(cons), c.NumUnitigs)
	case *refPath != "":
		if cons, err = readRef(*refPath); err != nil {
			return err
		}
	default:
		return fmt.Errorf("compress: pass -ref or -denovo")
	}

	// Compression against a reference streams its inputs: the whole
	// read set is never in memory at once. -denovo feeds the reads it
	// already holds to the same writer.
	plan := ingestPlan{
		inputs: inputs, paired: *paired, manifest: manifest,
		shardReads: *shardReads, threads: *threads, reorder: *doReorder, sort: sortCfg,
	}
	var ing *ingest
	if rs != nil {
		ing = &ingest{src: fastq.SliceSource(rs.Batches(*shardReads))}
		err = ing.wrapReorder(plan, *shardReads)
	} else {
		ing, err = openIngest(plan)
	}
	if err != nil {
		return fmt.Errorf("compress: %w", err)
	}
	defer ing.Close()
	opt := shard.DefaultOptions(cons)
	opt.ShardReads = *shardReads
	opt.Workers = *threads
	opt.Core.IncludeQuality = !*noQual
	opt.Core.IncludeHeaders = !*noHdr
	var st *shard.Stats
	err = publish(*out, func(w io.Writer) (err error) {
		st, err = shard.CompressPipeline(ing.src, w, opt)
		return err
	})
	if err != nil {
		return err
	}
	if ing.mr == nil {
		fmt.Printf("%s: %d bytes in %d shards (%d reads, %d B header+index)%s\n",
			*out, st.CompressedBytes, st.Shards, st.Reads, st.HeaderBytes, reorderNote(st))
		return nil
	}
	mode := "files"
	if *paired {
		mode = "paired-end mate files"
	}
	fmt.Printf("%s: %d bytes in %d shards (%d reads from %d %s, %d B header+index)%s\n",
		*out, st.CompressedBytes, st.Shards, st.Reads, len(inputs), mode, st.HeaderBytes, reorderNote(st))
	srcs, perSrc := ing.mr.Sources(), ing.mr.SourceReads()
	for i, s := range srcs {
		fmt.Printf("  %s: %d reads\n", s.Display(), perSrc[i])
	}
	return nil
}

// cmdRecompress is the gzip→sage migration path: it streams gzipped
// FASTQ archives (bgzip/BGZF inputs decode member-parallel, any other
// gzip pipelined) straight into one sharded container and
// reports what the migration bought — ratio against both the raw FASTQ
// and the gzip input, decode throughput, per-input decode tier, and a
// stage-attribution table showing decompression never owned the
// critical path.
func cmdRecompress(args []string) error {
	fs := flag.NewFlagSet("recompress", flag.ContinueOnError)
	out := fs.String("out", "", "output container (default: first input, .gz stripped, + .sage)")
	refPath := fs.String("ref", "", "consensus/reference sequence file (required: recompress streams)")
	paired := fs.Bool("paired", false, "treat inputs as paired-end R1 R2 [R1 R2 ...] mate files, interleaved pairwise")
	shardReads := fs.Int("shard-reads", shard.DefaultShardReads, "reads per shard")
	threads := fs.Int("threads", 0, "decode + compression workers (0 = all CPUs)")
	doReorder := fs.Bool("reorder", false, "clump-sort reads by similarity before sharding (container format v5)")
	sortMem := fs.Int("sort-mem", 256, "reorder sort memory budget in MiB before spilling runs to disk")
	tmpDir := fs.String("tmpdir", "", "directory for reorder spill files (default: the system temp dir)")
	inputs, err := parseFlagsArgs(fs, args)
	if err != nil {
		return err
	}
	if err := checkThreads("recompress", *threads); err != nil {
		return err
	}
	if *shardReads <= 0 {
		return usagef("recompress: -shard-reads must be > 0, got %d", *shardReads)
	}
	if *sortMem <= 0 {
		return usagef("recompress: -sort-mem must be > 0 MiB, got %d", *sortMem)
	}
	if len(inputs) == 0 {
		return usagef("recompress: at least one gzipped FASTQ input is required")
	}
	if *paired && len(inputs)%2 != 0 {
		return usagef("recompress: -paired needs an even number of inputs (R1 R2 [R1 R2 ...]), got %d", len(inputs))
	}
	if *refPath == "" {
		return usagef("recompress: -ref is required (recompress streams its inputs)")
	}
	if *out == "" {
		*out = strings.TrimSuffix(strings.TrimSuffix(inputs[0], ".gz"), ".gzip") + ".sage"
	}
	cons, err := readRef(*refPath)
	if err != nil {
		return err
	}
	opt := shard.DefaultOptions(cons)
	opt.ShardReads = *shardReads
	opt.Workers = *threads

	trace := obs.NewTrace("recompress")
	start := time.Now()
	in, err := openIngest(ingestPlan{
		inputs: inputs, paired: *paired, manifest: true,
		shardReads: *shardReads, threads: *threads, reorder: *doReorder,
		sort:  reorder.SortConfig{MemBudget: int64(*sortMem) << 20, TmpDir: *tmpDir},
		trace: trace,
	})
	if err != nil {
		return fmt.Errorf("recompress: %w", err)
	}
	defer in.Close()
	var st *shard.Stats
	err = publish(*out, func(w io.Writer) (err error) {
		sp := trace.StartSpan("shard-compress")
		defer sp.End()
		st, err = shard.CompressPipeline(in.src, w, opt)
		return err
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	fmt.Printf("%s: %d bytes in %d shards (%d reads from %d inputs)%s\n",
		*out, st.CompressedBytes, st.Shards, st.Reads, len(inputs), reorderNote(st))
	// On-disk input bytes, and the FASTQ bytes they decoded to: pargz
	// counts what a compressed input delivered; a plain one is its size.
	var inBytes, fastqBytes int64
	for i, path := range inputs {
		var size int64
		if fi, err := in.files[i].Stat(); err == nil {
			size = fi.Size()
		}
		inBytes += size
		if zr, ok := in.readers[i].(*pargz.Reader); ok {
			zst := zr.Stats()
			fastqBytes += zst.DecodedBytes
			fmt.Printf("  %s: %s, %d members, %d B compressed -> %d B FASTQ\n",
				filepath.Base(path), zr.Tier(), zst.Members, zst.CompressedBytes, zst.DecodedBytes)
		} else {
			fastqBytes += size
			fmt.Printf("  %s: plain FASTQ, %d B\n", filepath.Base(path), size)
		}
	}
	containerBytes := int64(st.CompressedBytes)
	fmt.Printf("totals: %d B gzip input -> %d B FASTQ -> %d B sage\n",
		inBytes, fastqBytes, containerBytes)
	if containerBytes > 0 && fastqBytes > 0 {
		fmt.Printf("  sage vs FASTQ: %.2fx   sage vs gzip input: %.2fx\n",
			float64(fastqBytes)/float64(containerBytes),
			float64(inBytes)/float64(containerBytes))
	}
	secs := elapsed.Seconds()
	if secs > 0 {
		fmt.Printf("  decoded+recompressed in %.2fs (%.1f MB/s FASTQ-side, %.1f MB/s gzip-side)\n",
			secs, float64(fastqBytes)/1e6/secs, float64(inBytes)/1e6/secs)
	}
	fmt.Printf("stage attribution (gunzip-wait is decode stalling the pipeline):\n%s",
		obs.StageTable(trace.Stages()))
	return nil
}

// reorderNote renders the reorder suffix of a compress report line.
func reorderNote(st *shard.Stats) string {
	if st.ReorderMode == shard.ReorderNone {
		return ""
	}
	return "; clump-reordered (v5, original order recoverable)"
}

func cmdDecompress(args []string) error {
	fs := flag.NewFlagSet("decompress", flag.ContinueOnError)
	in := fs.String("in", "", "input container")
	out := fs.String("out", "", "output FASTQ (default: stdout)")
	threads := fs.Int("threads", 0, "decompression workers for sharded containers (0 = all CPUs)")
	origOrder := fs.Bool("original-order", false, "emit reads in the exact original input order (reordered v5 containers are put back out of core)")
	sortMem := fs.Int("sort-mem", 256, "original-order restore memory budget in MiB before spilling to disk")
	tmpDir := fs.String("tmpdir", "", "directory for original-order spill files (default: the system temp dir)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if err := checkThreads("decompress", *threads); err != nil {
		return err
	}
	if *in == "" {
		return usagef("decompress: -in is required")
	}
	if *sortMem <= 0 {
		return usagef("decompress: -sort-mem must be > 0 MiB, got %d", *sortMem)
	}
	inF, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer inF.Close()
	var magic [4]byte
	if _, err := io.ReadFull(inF, magic[:]); err != nil {
		return fmt.Errorf("decompress: reading %s: %w", *in, err)
	}
	return writeOutput(*out, func(w io.Writer) error {
		if !shard.IsContainer(magic[:]) {
			// Single-block containers are one codec block: the decoder
			// needs it whole either way (and already decodes in input
			// order, so -original-order is naturally satisfied). Reuse
			// the open handle (the magic probe consumed its first 4
			// bytes) rather than reading the file a second time. The
			// block renders straight to FASTQ text against the consensus
			// it embeds, written at once.
			data, err := io.ReadAll(io.MultiReader(bytes.NewReader(magic[:]), inF))
			if err != nil {
				return err
			}
			text, _, err := core.AppendFASTQ(nil, data, nil)
			if err != nil {
				return err
			}
			_, err = w.Write(text)
			return err
		}
		// Sharded containers stream: the container is opened lazily
		// (only the index is resident) and shards are decoded on a
		// -threads pool but written in order, holding at most
		// workers+1 decoded shards — peak memory is O(workers × shard),
		// never O(container).
		fi, err := inF.Stat()
		if err != nil {
			return err
		}
		c, err := shard.Open(inF, fi.Size())
		if err != nil {
			return err
		}
		if *origOrder {
			// Identity-order containers fall straight through to
			// DecompressTo inside; reordered (v5) containers scatter
			// each read back to its original index, holding at most
			// -sort-mem and spilling one file to -tmpdir beyond it.
			return c.DecompressOriginalTo(w, nil, *threads,
				reorder.SortConfig{MemBudget: int64(*sortMem) << 20, TmpDir: *tmpDir})
		}
		return c.DecompressTo(w, nil, *threads)
	})
}

func cmdFilter(args []string) error {
	fs := flag.NewFlagSet("filter", flag.ContinueOnError)
	in := fs.String("in", "", "input sharded container")
	out := fs.String("out", "", "output FASTQ of matching records (default: stdout)")
	minAvgPhred := fs.Float64("min-avgphred", 0, "keep reads with mean Phred >= this")
	maxEE := fs.Float64("max-ee", 0, "keep reads with expected errors <= this")
	minLen := fs.Int("min-len", 0, "keep reads at least this long")
	maxLen := fs.Int("max-len", 0, "keep reads at most this long")
	minGC := fs.Float64("min-gc", 0, "keep reads with GC fraction >= this")
	maxGC := fs.Float64("max-gc", 0, "keep reads with GC fraction <= this")
	kmer := fs.String("kmer", "", "keep reads containing this subsequence (ACGTN)")
	threads := fs.Int("threads", 0, "decode workers for surviving shards (0 = all CPUs)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if err := checkThreads("filter", *threads); err != nil {
		return err
	}
	if *in == "" {
		return usagef("filter: -in is required")
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"min-avgphred", *minAvgPhred}, {"max-ee", *maxEE},
		{"min-gc", *minGC}, {"max-gc", *maxGC},
	} {
		if f.v < 0 {
			return usagef("filter: -%s must be >= 0, got %g", f.name, f.v)
		}
	}
	if *minLen < 0 || *maxLen < 0 {
		return usagef("filter: -min-len and -max-len must be >= 0")
	}
	if *minLen > 0 && *maxLen > 0 && *minLen > *maxLen {
		return usagef("filter: -min-len %d exceeds -max-len %d", *minLen, *maxLen)
	}
	if *minGC > 0 && *maxGC > 0 && *minGC > *maxGC {
		return usagef("filter: -min-gc %g exceeds -max-gc %g", *minGC, *maxGC)
	}
	pred := &shard.Predicate{
		MinAvgPhred: *minAvgPhred, MaxEE: *maxEE,
		MinLen: *minLen, MaxLen: *maxLen,
		MinGC: *minGC, MaxGC: *maxGC,
	}
	if *kmer != "" {
		seq, err := genome.FromString(*kmer)
		if err != nil {
			return usagef("filter: -kmer: %v", err)
		}
		pred.Subseq = seq
	}
	c, inF, err := shard.OpenFile(*in)
	if err != nil {
		return err
	}
	defer inF.Close()
	var st *shard.FilterStats
	err = writeOutput(*out, func(w io.Writer) (err error) {
		st, err = c.Filter(w, pred, *threads)
		return err
	})
	if err != nil {
		return err
	}
	if !c.HasZoneMaps() {
		fmt.Fprintf(os.Stderr, "sage filter: note: %s predates format v4 (no zone maps); every shard was scanned\n", *in)
	}
	fmt.Fprintf(os.Stderr, "sage filter: %s: %d/%d shards pruned (zero I/O), %d scanned; %d/%d reads matched\n",
		pred.String(), st.ShardsPruned, st.ShardsTotal, st.ShardsScanned, st.ReadsMatched, st.ReadsScanned)
	return nil
}

func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ContinueOnError)
	in := fs.String("in", "", "input container")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *in == "" {
		return usagef("inspect: -in is required")
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	var info string
	if shard.IsContainer(data) {
		info, err = shard.Inspect(data)
	} else {
		info, err = core.Inspect(data)
	}
	if err != nil {
		return err
	}
	fmt.Print(info)
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	a := fs.String("a", "", "first FASTQ")
	b := fs.String("b", "", "second FASTQ")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *a == "" || *b == "" {
		return usagef("verify: -a and -b are required")
	}
	ra, err := readFASTQ(*a)
	if err != nil {
		return err
	}
	rb, err := readFASTQ(*b)
	if err != nil {
		return err
	}
	if !fastq.Equivalent(ra, rb) {
		return fmt.Errorf("read sets differ")
	}
	fmt.Printf("equivalent: %d reads, %d bases\n", len(ra.Records), ra.TotalBases())
	return nil
}

// repeatableFlag collects every occurrence of a repeated string flag.
type repeatableFlag []string

func (f *repeatableFlag) String() string     { return strings.Join(*f, ", ") }
func (f *repeatableFlag) Set(v string) error { *f = append(*f, v); return nil }

// serveInputs expands the -in values into concrete container paths: a
// directory contributes every *.sage file in it (sorted), a file
// contributes itself.
func serveInputs(ins []string) ([]string, error) {
	var paths []string
	for _, in := range ins {
		fi, err := os.Stat(in)
		if err != nil {
			return nil, err
		}
		if !fi.IsDir() {
			paths = append(paths, in)
			continue
		}
		matches, err := filepath.Glob(filepath.Join(in, "*.sage"))
		if err != nil {
			return nil, err
		}
		if len(matches) == 0 {
			return nil, fmt.Errorf("serve: directory %s contains no *.sage containers", in)
		}
		sort.Strings(matches)
		paths = append(paths, matches...)
	}
	return paths, nil
}

// containerName derives the registry name a container is routed under:
// its base name without the .sage extension.
func containerName(path string) string {
	return strings.TrimSuffix(filepath.Base(path), ".sage")
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var ins repeatableFlag
	fs.Var(&ins, "in", "sharded container to serve (repeatable; a directory serves every *.sage in it)")
	addr := fs.String("addr", ":8844", "listen address")
	cacheBytes := fs.Int64("cache-bytes", serve.DefaultCacheBytes, "decoded-shard cache budget in bytes, shared across containers")
	threads := fs.Int("threads", 0, "decode workers (0 = all CPUs)")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof on this extra address (empty = off)")
	slowMs := fs.Int("slow-ms", 0, "log requests slower than this many milliseconds to stderr (0 = off)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *slowMs < 0 {
		return usagef("serve: -slow-ms must be >= 0, got %d", *slowMs)
	}
	if err := checkThreads("serve", *threads); err != nil {
		return err
	}
	if len(ins) == 0 {
		return usagef("serve: at least one -in container (or directory of containers) is required")
	}
	if *cacheBytes <= 0 {
		// serve.Config treats <= 0 as "use the default", which would
		// silently contradict a 0 the operator meant as "no cache".
		return usagef("serve: -cache-bytes must be > 0, got %d", *cacheBytes)
	}
	paths, err := serveInputs(ins)
	if err != nil {
		return err
	}
	// Containers are routed by base name (sans .sage), so two inputs
	// that would collide must be renamed rather than silently shadowed.
	seen := make(map[string]string, len(paths))
	for _, path := range paths {
		name := containerName(path)
		if prev, dup := seen[name]; dup {
			return usagef("serve: %s and %s would both be served as /c/%s/...; rename one", prev, path, name)
		}
		seen[name] = path
	}

	// Open each container lazily: only headers and indexes are read
	// now; blocks are fetched shard by shard as clients ask for them.
	var named []serve.Named
	for _, path := range paths {
		c, f, err := shard.OpenFile(path)
		if err != nil {
			if pf, perr := os.Open(path); perr == nil {
				var magic [4]byte
				_, rerr := io.ReadFull(pf, magic[:])
				pf.Close()
				if rerr == nil && core.IsContainer(magic[:]) {
					return fmt.Errorf("serve: %s is a single-block container; only sharded containers are servable", path)
				}
			}
			return err
		}
		defer f.Close()
		named = append(named, serve.Named{Name: containerName(path), C: c})
	}
	s, err := serve.NewMulti(named, serve.Config{
		CacheBytes:  *cacheBytes,
		Workers:     *threads,
		SlowRequest: time.Duration(*slowMs) * time.Millisecond,
	})
	if err != nil {
		return err
	}
	if *pprofAddr != "" {
		// pprof lives on its own listener and mux, never the serving
		// address: profiling endpoints must not be reachable by shard
		// clients, and the import's DefaultServeMux registration must
		// not leak into the data plane.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			fmt.Printf("pprof on %s/debug/pprof/\n", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, mux); err != nil {
				fmt.Fprintf(os.Stderr, "serve: pprof listener: %v\n", err)
			}
		}()
	}
	fmt.Printf("serving %d container(s) on %s (shared cache budget %d B):\n", len(named), *addr, *cacheBytes)
	for _, nc := range named {
		fmt.Printf("  /c/%s: %d reads in %d shards (%d B blocks)\n",
			nc.Name, nc.C.Index.TotalReads, nc.C.NumShards(), nc.C.Index.BlockBytes())
	}
	fmt.Printf("endpoints: /containers /c/{name}/shards /c/{name}/shard/{i}[/reads] /c/{name}/query /c/{name}/files /c/{name}/file/{file}/shards /stats /metrics\n")
	fmt.Printf("shard responses carry ETag (= index crc32) and Content-Length; If-None-Match answers 304; raw blocks honor Range\n")
	return http.ListenAndServe(*addr, s)
}

func cmdInstorage(args []string) error {
	fs := flag.NewFlagSet("instorage", flag.ContinueOnError)
	in := fs.String("in", "", "input sharded container")
	channels := fs.Int("channels", 0, "SSD channels = scan units (0 = default geometry)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *in == "" {
		return usagef("instorage: -in is required")
	}
	// Cap the sweep: FTL bookkeeping scales with channel count, and no
	// real controller goes past a few dozen channels — an absurd value
	// should be a usage error, not an allocation blow-up.
	const maxChannels = 256
	if *channels < 0 || *channels > maxChannels {
		return usagef("instorage: -channels must be in [0,%d] (0 = default geometry), got %d", maxChannels, *channels)
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	if !shard.IsContainer(data) {
		if core.IsContainer(data) {
			return fmt.Errorf("instorage: %s is a single-block container; the dispatch engine needs a sharded container", *in)
		}
		return fmt.Errorf("instorage: %s is not a SAGe container", *in)
	}
	cfg := ssd.DefaultConfig()
	if *channels > 0 {
		cfg.Geometry.Channels = *channels
	}
	dev, err := ssd.New(cfg)
	if err != nil {
		return err
	}
	eng := instorage.New(dev)
	p, err := eng.Place(filepath.Base(*in), data)
	if err != nil {
		return err
	}
	fmt.Printf("SAGe_Write: %d bytes, %d shards placed shard-aligned across %d channels in %v (modeled)\n",
		len(data), p.C.NumShards(), eng.Channels(), p.WriteTime.Round(time.Microsecond))
	res, err := p.Scan()
	if err != nil {
		return err
	}
	fmt.Printf("%6s  %7s  %5s  %10s  %12s  %12s  %12s\n",
		"shard", "channel", "pages", "bytes", "flash-read", "decode", "service")
	for _, st := range res.PerShard {
		fmt.Printf("%6d  %7d  %5d  %10d  %12v  %12v  %12v\n",
			st.Shard, st.Channel, st.Pages, st.CompressedBytes,
			st.FlashRead.Round(time.Microsecond), st.Decode.Round(time.Microsecond),
			st.Service.Round(time.Microsecond))
	}
	fmt.Printf("scanned: %d reads, %d B compressed -> %d B FASTQ; every payload matched the container's crc32 index\n",
		res.Reads, res.CompressedBytes, res.OutputBytes)
	fmt.Printf("host wall-clock stage attribution (measured, functional model):\n%s", res.StageTable())
	if bound := res.DecodeBound(); len(bound) == 0 {
		fmt.Printf("scan-unit decode is never the critical path: flash supply dominates every shard (NAND-bound, paper 8.2)\n")
	} else {
		fmt.Printf("WARNING: shards %v are decode-bound\n", bound)
	}
	fmt.Printf("keyed dispatch (shard i -> channel i mod %d): makespan %v\n",
		res.Channels, res.ChannelMakespan.Round(time.Microsecond))
	times := res.ServiceTimes()
	fmt.Printf("scan-unit pool schedule (bench.ShardMakespan):\n")
	for _, u := range unitSweep(res.Channels) {
		mk := bench.ShardMakespan(times, u)
		fmt.Printf("  %2d unit(s): %12v  (%.2fx, %.2f GB/s decoded)\n",
			u, mk.Round(time.Microsecond), bench.ShardSpeedup(times, u),
			float64(res.OutputBytes)/mk.Seconds()/1e9)
	}
	fmt.Printf("pipeline recurrence (flash-read -> scan-decode): total %v, bottleneck %s\n",
		res.Pipeline.Total.Round(time.Microsecond), res.Pipeline.BottleneckName())
	return nil
}

// unitSweep yields 1, 2, 4, ... up to and including the channel count.
func unitSweep(channels int) []int {
	var out []int
	for u := 1; u < channels; u *= 2 {
		out = append(out, u)
	}
	return append(out, channels)
}

func readFASTQ(path string) (*fastq.ReadSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// Gzipped FASTQ is sniffed by magic, not extension, like every
	// other compress input path.
	r, err := fastq.Sniff(f, fastq.SniffOptions{Name: path})
	if err != nil {
		return nil, err
	}
	defer fastq.CloseSniffed(r)
	rs, err := fastq.Parse(r)
	if err != nil {
		return nil, fmt.Errorf("fastq: file %s: %w", filepath.Base(path), err)
	}
	return rs, nil
}

// readRef loads a reference: plain base text or single-record FASTA.
func readRef(path string) (genome.Seq, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, ">") {
			continue
		}
		b.WriteString(line)
	}
	return genome.FromString(b.String())
}

// simulateSet generates a donor genome from a fresh reference and samples
// reads from it.
func simulateSet(long bool, genomeLen, nReads int, seed int64) (*fastq.ReadSet, genome.Seq, error) {
	rng := rand.New(rand.NewSource(seed))
	ref := genome.Random(rng, genomeLen)
	donor, _ := genome.Donor(rng, ref, genome.HumanLikeProfile())
	sim := simulate.New(rng, donor)
	if long {
		p := simulate.DefaultLongProfile()
		if p.MaxLen > genomeLen {
			p.MaxLen = genomeLen / 2
			p.MeanLen = genomeLen / 8
		}
		rs, err := sim.LongReads(nReads, p)
		return rs, ref, err
	}
	rs, err := sim.ShortReads(nReads, simulate.DefaultShortProfile())
	return rs, ref, err
}
