package fastq

import (
	"bytes"
	"fmt"
	"io"
)

// Real sequencing runs arrive as many FASTQ files — paired-end mates
// (R1/R2) and lane splits — not one stream. MultiReader is the ingest
// front end for that workload: it batches records across N input
// sources while keeping every batch inside a single source, so a
// downstream sharded container can stay file-aware (no shard spans two
// source files). In paired mode each R1/R2 mate pair is one logical
// source: records are interleaved mate by mate and the mate names are
// validated as they stream.

// NamedReader couples an input stream with the name it is reported and
// recorded (in the container's source manifest) under.
type NamedReader struct {
	Name string
	R    io.Reader
}

// Source describes one logical ingest source: a single FASTQ file, or —
// in paired mode — an R1/R2 mate pair whose records are interleaved.
type Source struct {
	// Name is the file name (the R1 file in paired mode).
	Name string
	// Mate is the R2 file name; empty for single-file sources.
	Mate string
}

// Display renders the source for humans: "name" or "name+mate".
func (s Source) Display() string {
	if s.Mate == "" {
		return s.Name
	}
	return s.Name + "+" + s.Mate
}

// multiSource is one source and its open scanner(s).
type multiSource struct {
	src   Source
	r1    *Scanner
	r2    *Scanner // nil unless paired
	pairs int      // mate pairs consumed (paired mode, for error context)
}

// MultiReader streams fixed-size batches across many FASTQ sources.
// Batches carry the index of the source they came from, and no batch
// ever spans two sources: when a source runs out mid-batch the batch is
// cut short and the next batch starts the next source. Like
// BatchReader, only one batch of raw reads is materialized per Next
// call.
type MultiReader struct {
	srcs   []multiSource
	bb     batchBuilder
	size   int
	cur    int
	next   int // global batch index
	counts []int
	done   bool
}

// NewMultiReader builds a reader that concatenates the inputs in order
// (lane splits), batching at most size records at a time (size <= 0
// means batches of 1).
func NewMultiReader(inputs []NamedReader, size int) (*MultiReader, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("fastq: multi-reader needs at least one input")
	}
	if size <= 0 {
		size = 1
	}
	m := &MultiReader{size: size, counts: make([]int, len(inputs))}
	for _, in := range inputs {
		m.srcs = append(m.srcs, multiSource{
			src: Source{Name: in.Name},
			r1:  NewScanner(in.R),
		})
	}
	return m, nil
}

// NewPairedReader builds a reader over R1/R2 mate pairs. Each pair is
// one source whose records are interleaved R1[0], R2[0], R1[1], R2[1],
// …; mate headers must agree (same name up to a trailing /1 vs /2 and
// anything after the first space) and both files must hold the same
// number of reads. Batches hold whole mate pairs, so size is rounded
// down to an even count (minimum 2) and mates always land in the same
// batch — and therefore in the same shard downstream.
func NewPairedReader(pairs [][2]NamedReader, size int) (*MultiReader, error) {
	if len(pairs) == 0 {
		return nil, fmt.Errorf("fastq: paired reader needs at least one R1/R2 pair")
	}
	size -= size % 2
	if size < 2 {
		size = 2
	}
	m := &MultiReader{size: size, counts: make([]int, len(pairs))}
	for _, p := range pairs {
		m.srcs = append(m.srcs, multiSource{
			src: Source{Name: p[0].Name, Mate: p[1].Name},
			r1:  NewScanner(p[0].R),
			r2:  NewScanner(p[1].R),
		})
	}
	return m, nil
}

// BatchSize returns the reader's effective batch size: the size it was
// built with, rounded down to an even count in paired mode. This is
// the shard cut point a downstream shard.CompressPipeline records.
func (m *MultiReader) BatchSize() int { return m.size }

// Sources lists the reader's sources in ingest order. Batch.Source
// indexes into this slice.
func (m *MultiReader) Sources() []Source {
	out := make([]Source, len(m.srcs))
	for i := range m.srcs {
		out[i] = m.srcs[i].src
	}
	return out
}

// SourceReads returns the records consumed from each source so far;
// once Next has returned io.EOF these are the per-source totals.
func (m *MultiReader) SourceReads() []int {
	return append([]int(nil), m.counts...)
}

// Next returns the next batch, tagged with its source. It returns
// io.EOF once every source is exhausted; empty sources are skipped
// without emitting a batch.
func (m *MultiReader) Next() (Batch, error) {
	for !m.done {
		s := &m.srcs[m.cur]
		var (
			recs []Record
			err  error
		)
		if s.r2 != nil {
			recs, err = m.fillPaired(s)
		} else {
			recs, err = m.fillSingle(s)
		}
		if err != nil {
			return Batch{}, err
		}
		exhausted := len(recs) < m.size
		m.counts[m.cur] += len(recs)
		b := Batch{Index: m.next, Source: m.cur, Records: recs}
		if exhausted {
			if m.cur++; m.cur == len(m.srcs) {
				m.done = true
			}
		}
		if len(recs) == 0 {
			continue // empty source: move on without a batch
		}
		m.next++
		return b, nil
	}
	return Batch{}, io.EOF
}

// fillSingle reads up to size records from a single-file source into
// the reader's batch builder.
func (m *MultiReader) fillSingle(s *multiSource) ([]Record, error) {
	m.bb.start(m.size)
	var rr rawRecord
	for len(m.bb.recs) < m.size {
		err := s.r1.nextRaw(&rr)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("fastq: file %s: %w", s.src.Name, err)
		}
		m.bb.add(&rr)
	}
	return m.bb.finish(), nil
}

// fillPaired reads up to size records (size/2 mate pairs) from a paired
// source, validating mate agreement pair by pair. The two scanners have
// independent buffers, so both raw views stay valid while a pair is
// checked and converted.
func (m *MultiReader) fillPaired(s *multiSource) ([]Record, error) {
	m.bb.start(m.size)
	var rr1, rr2 rawRecord
	for len(m.bb.recs) < m.size {
		err1 := s.r1.nextRaw(&rr1)
		err2 := s.r2.nextRaw(&rr2)
		// A real parse error outranks the other file's clean EOF: an
		// "unequal read counts" report would mask the corruption.
		if err1 != nil && err1 != io.EOF {
			return nil, fmt.Errorf("fastq: file %s: %w", s.src.Name, err1)
		}
		if err2 != nil && err2 != io.EOF {
			return nil, fmt.Errorf("fastq: file %s: %w", s.src.Mate, err2)
		}
		if err1 == io.EOF && err2 == io.EOF {
			break
		}
		if err1 == io.EOF || err2 == io.EOF {
			short, long := s.src.Name, s.src.Mate
			if err2 == io.EOF {
				short, long = s.src.Mate, s.src.Name
			}
			return nil, fmt.Errorf("fastq: paired inputs have unequal read counts: %s ended after %d reads while %s has more",
				short, s.pairs, long)
		}
		if !bytes.Equal(mateKeyBytes(rr1.header), mateKeyBytes(rr2.header)) {
			return nil, fmt.Errorf("fastq: mate name mismatch at pair %d of %s/%s: %q vs %q",
				s.pairs, s.src.Name, s.src.Mate, rr1.header, rr2.header)
		}
		s.pairs++
		m.bb.add(&rr1)
		m.bb.add(&rr2)
	}
	return m.bb.finish(), nil
}

// mateKeyBytes reduces a read header to the name both mates of a pair
// must share: the part before the first space (Casava 1.8+ keeps the
// mate number in the comment), with a classic trailing "/1" or "/2"
// mate suffix stripped.
func mateKeyBytes(h []byte) []byte {
	if i := bytes.IndexByte(h, ' '); i >= 0 {
		h = h[:i]
	}
	if n := len(h); n >= 2 && h[n-2] == '/' && (h[n-1] == '1' || h[n-1] == '2') {
		h = h[:n-2]
	}
	return h
}
