// Package reorder implements the similarity-reorder stage of the ingest
// pipeline: reads are clump-sorted by their minimizer — the minimum
// hashed canonical k-mer, a one-word MinHash signature — so reads that
// share sequence land in the same shards and the per-shard codec sees
// homogeneous, overlapping data (ROADMAP item 1; clump-sort idiom after
// stevekm/squish). The sort is out of core: bounded-memory sorted runs
// spill to temp files and a k-way merge streams them back, so datasets
// far larger than RAM reorder in O(memory budget).
//
// The stage records the inverse permutation (new position → original
// position) as it emits, which the container stores (format v5) and
// Restorer uses to recover the exact original order on decode. Those
// indices are exactly 0..n−1, so the restorer needs no comparison: it
// stores each record's FASTQ text under its index and writes the texts
// back in index order, from memory or, past the budget, one key range at
// a time out of a single spill file. Mate
// pairs move as one unit, and reads never cross source-file boundaries,
// so paired semantics and file-aware sharding both survive.
package reorder

import (
	"fmt"
	"io"
	"math/bits"

	"sage/internal/fastq"
	"sage/internal/genome"
)

// Mode selects the reorder algorithm; the value is what the container
// header records (shard.ReorderClump mirrors ModeClump). The zero Mode
// leaves the input order alone: no Stage is built for it.
type Mode int

// ModeClump sorts reads by minimizer so similar reads cluster.
const ModeClump Mode = 1

// DefaultK is the minimizer k-mer length. 11 matches the zone-map
// sketch's k: long enough to discriminate clumps, short enough that
// almost every read yields a valid window.
const DefaultK = 11

// DefaultBatchSize is the records-per-batch the stage emits when the
// caller does not set one (mirrors shard.DefaultShardReads).
const DefaultBatchSize = 4096

// Config parameterizes a Stage.
type Config struct {
	// Mode selects the reorder algorithm; NewStage rejects the zero Mode.
	Mode Mode
	// BatchSize is the records per emitted batch — the downstream
	// shard cut point (<= 0 uses DefaultBatchSize; rounded down to
	// even in paired mode, like fastq.NewPairedReader).
	BatchSize int
	// Paired groups interleaved R1/R2 mate pairs as one sort unit, so
	// mates stay adjacent and land in the same shard.
	Paired bool
	// Sort bounds the external sort (memory budget, temp directory).
	Sort SortConfig
}

// Stage is the similarity-reorder pipeline stage: a fastq.BatchSource
// that drains its upstream one source at a time, clump-sorts each
// source out of core, and re-emits the records as fixed-size batches.
// After the stream ends (Next returned io.EOF), Perm holds the inverse
// permutation the container header records. Close releases the temp
// files; it is safe (and expected, via defer) to call on every path.
type Stage struct {
	src  fastq.BatchSource
	cfg  Config
	size int

	srcEOF  bool
	pending *fastq.Batch // first batch of the next source, if peeked
	cur     int          // source index being drained

	sorter *extSorter
	it     *mergeIter

	perm      []int64
	nextOrig  int64 // original index of the next intake record
	nextBatch int
	spilled   int
	closed    bool
}

var _ fastq.BatchSource = (*Stage)(nil)

// NewStage wraps src in a similarity-reorder stage.
func NewStage(src fastq.BatchSource, cfg Config) (*Stage, error) {
	if cfg.Mode != ModeClump {
		return nil, fmt.Errorf("reorder: unsupported mode %d (only clump sort is implemented)", cfg.Mode)
	}
	size := cfg.BatchSize
	if size <= 0 {
		size = DefaultBatchSize
	}
	if cfg.Paired {
		size -= size % 2
		if size < 2 {
			size = 2
		}
	}
	return &Stage{src: src, cfg: cfg, size: size}, nil
}

// BatchSize returns the stage's effective batch size — the shard cut
// point a downstream CompressPipeline records.
func (st *Stage) BatchSize() int { return st.size }

// Sources forwards the upstream's source manifest when it has one
// (fastq.MultiReader), preserving file attribution through the stage.
func (st *Stage) Sources() []fastq.Source {
	if ms, ok := st.src.(interface{ Sources() []fastq.Source }); ok {
		return ms.Sources()
	}
	return nil
}

// ReorderMode reports the mode the container header should record.
func (st *Stage) ReorderMode() int { return int(st.cfg.Mode) }

// Perm returns the inverse permutation built so far: Perm()[new]
// is the record's position in the original input. It is complete once
// Next has returned io.EOF.
func (st *Stage) Perm() []int64 { return st.perm }

// SpilledRuns returns the number of sorted runs spilled to temp files
// across all sources — zero when every source fit the memory budget.
func (st *Stage) SpilledRuns() int {
	n := st.spilled
	if st.sorter != nil {
		n += st.sorter.spills()
	}
	return n
}

// Close removes the stage's temp-run files. Idempotent; always safe.
func (st *Stage) Close() error {
	if st.closed {
		return nil
	}
	st.closed = true
	st.it = nil
	if st.sorter != nil {
		err := st.sorter.close()
		st.sorter = nil
		return err
	}
	return nil
}

// Next returns the next clump-sorted batch, or io.EOF after the last
// source is drained. On error the stage's temp files are already
// cleaned up.
func (st *Stage) Next() (fastq.Batch, error) {
	if st.closed {
		return fastq.Batch{}, fmt.Errorf("reorder: Next after Close")
	}
	for {
		if st.it != nil {
			b, ok, err := st.emit()
			if err != nil {
				st.Close()
				return fastq.Batch{}, err
			}
			if ok {
				return b, nil
			}
			// Source exhausted: retire its sorter and move on.
			st.spilled += st.sorter.spills()
			st.sorter.close()
			st.sorter, st.it = nil, nil
		}
		if st.srcEOF && st.pending == nil {
			return fastq.Batch{}, io.EOF
		}
		if err := st.intakeSource(); err != nil {
			st.Close()
			return fastq.Batch{}, err
		}
	}
}

// intakeSource drains one upstream source into a fresh external sorter
// and leaves the merge iterator ready. A batch from the next source is
// stashed in st.pending (batches never span sources upstream, so one
// lookahead batch is enough).
func (st *Stage) intakeSource() error {
	st.sorter = newExtSorter(st.cfg.Sort)
	first := true
	for {
		var b fastq.Batch
		if st.pending != nil {
			b, st.pending = *st.pending, nil
		} else if st.srcEOF {
			break
		} else {
			var err error
			b, err = st.src.Next()
			if err == io.EOF {
				st.srcEOF = true
				break
			}
			if err != nil {
				return err
			}
		}
		if first {
			st.cur = b.Source
			first = false
		} else if b.Source != st.cur {
			st.pending = &b
			break
		}
		if err := st.intakeBatch(b); err != nil {
			return err
		}
	}
	var err error
	st.it, err = st.sorter.finish()
	return err
}

// intakeBatch splits one batch into sort units (records, or mate pairs
// in paired mode), keys each by minimizer, and feeds the sorter.
func (st *Stage) intakeBatch(b fastq.Batch) error {
	unit := 1
	if st.cfg.Paired {
		unit = 2
		if len(b.Records)%2 != 0 {
			return fmt.Errorf("reorder: paired batch %d holds %d records (odd)", b.Index, len(b.Records))
		}
	}
	for i := 0; i+unit <= len(b.Records); i += unit {
		recs := b.Records[i : i+unit : i+unit]
		key := clumpKey(recs[0].Seq, DefaultK)
		if unit == 2 {
			// A pair's clump key is the better (smaller) of its mates'
			// minimizers: symmetric, and a good mate can place a pair
			// whose other mate is all-N.
			if k2 := clumpKey(recs[1].Seq, DefaultK); k2 < key {
				key = k2
			}
		}
		if err := st.sorter.add(group{key: key, seq: st.nextOrig, recs: recs}); err != nil {
			return err
		}
		st.nextOrig += int64(unit)
	}
	return nil
}

// emit assembles the next output batch from the current source's merge
// iterator. ok=false means the source is exhausted.
func (st *Stage) emit() (fastq.Batch, bool, error) {
	// A batch size above the reads the stage holds must not allocate for
	// reads that never come: preallocate one default batch at most.
	recs := make([]fastq.Record, 0, min(st.size, DefaultBatchSize))
	for len(recs) < st.size {
		g, ok, err := st.it.next()
		if err != nil {
			return fastq.Batch{}, false, err
		}
		if !ok {
			break
		}
		// Group records were adjacent in the original input (mates are
		// interleaved), so their original indices are consecutive.
		for r := range g.recs {
			st.perm = append(st.perm, g.seq+int64(r))
		}
		recs = append(recs, g.recs...)
	}
	if len(recs) == 0 {
		return fastq.Batch{}, false, nil
	}
	b := fastq.Batch{Index: st.nextBatch, Source: st.cur, Records: recs}
	st.nextBatch++
	return b, true, nil
}

// clumpKey returns the read's minimizer: the minimum splitmix64-hashed
// canonical k-mer — a one-word MinHash, so reads sharing sequence
// share small keys with high probability. Reads too short for a window
// (or all-N) key to MaxUint64 and clump together at the end. The
// canonical pick and the running minimum are selects, not branches:
// which strand's code is smaller is a coin flip per k-mer, so a branch
// there mispredicts half the time.
func clumpKey(seq genome.Seq, k int) uint64 {
	best := ^uint64(0)
	shift := uint(2 * (k - 1))
	mask := (uint64(1) << (2 * k)) - 1
	var fwd, rc uint64
	run := 0
	for _, b := range seq {
		if b > 3 {
			run, fwd, rc = 0, 0, 0
			continue
		}
		fwd = ((fwd << 2) | uint64(b)) & mask
		rc = (rc >> 2) | (uint64(3-b) << shift)
		if run++; run < k {
			continue
		}
		// less is 1 when rc < fwd; -less masks in the switch to rc.
		_, less := bits.Sub64(rc, fwd, 0)
		best = min(best, mix64(fwd^(fwd^rc)&-less))
	}
	return best
}

// mix64 is the splitmix64 finalizer (same scatter as the zone-map
// sketch), decorrelating the packed k-mer codes so minimizers are
// uniform rather than biased toward low-complexity sequence.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
