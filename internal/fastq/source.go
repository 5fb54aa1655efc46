package fastq

import (
	"bufio"
	"io"

	"sage/internal/obs"
	"sage/internal/pargz"
)

// The ingest side of compression is a staged pipeline: a BatchSource
// produces batches, optional stages (internal/reorder) transform the
// stream, and the sharder (shard.CompressPipeline) consumes it. A
// BatchReader or MultiReader feeding the sharder directly is the
// identity pipeline.

// BatchSource is one stage of the ingest pipeline: anything that yields
// record batches in a defined order, ending with io.EOF. BatchReader,
// MultiReader and SliceSource are the leaf sources; pipeline stages
// wrap another BatchSource. Implementations may additionally expose
//
//	Sources() []Source
//
// (file attribution for the container's source manifest, see
// MultiReader.Sources); downstream consumers discover the capability by
// type assertion, so a plain stream stays manifest-less.
type BatchSource interface {
	// Next returns the next batch, or io.EOF after the last one.
	Next() (Batch, error)
}

var (
	_ BatchSource = (*BatchReader)(nil)
	_ BatchSource = (*MultiReader)(nil)
)

// sliceSource replays batches already in memory.
type sliceSource struct {
	batches []Batch
}

// SliceSource is the leaf BatchSource over batches already in memory,
// such as a parsed read set's Batches.
func SliceSource(batches []Batch) BatchSource {
	return &sliceSource{batches: batches}
}

func (s *sliceSource) Next() (Batch, error) {
	if len(s.batches) == 0 {
		return Batch{}, io.EOF
	}
	b := s.batches[0]
	s.batches = s.batches[1:]
	return b, nil
}

// gzipMagic is the two-byte gzip member header (RFC 1952).
var gzipMagic = [2]byte{0x1f, 0x8b}

// SniffOptions tunes Sniff's compressed-input handling; the zero value
// decodes on GOMAXPROCS workers without labels or tracing.
type SniffOptions struct {
	// Name labels decode errors with the input's name (usually a path).
	Name string
	// Threads bounds parallel member decode (0 = GOMAXPROCS), plumbed
	// from the CLI's -threads.
	Threads int
	// Trace, when non-nil, records the decode stage's gunzip and
	// gunzip-wait spans.
	Trace *obs.Trace
}

// Sniff adapts an input stream for FASTQ scanning, transparently
// decompressing compressed inputs: the first bytes are sniffed (never
// consumed from the caller's view) and a stream starting with the gzip
// magic decodes through internal/pargz — BGZF/bgzip inputs inflate
// member-parallel on Threads workers, generic gzip decodes on a
// pipelined readahead goroutine, so ingest never
// serializes behind a single-threaded inflate. Anything else
// (including an empty stream) passes through buffered but otherwise
// untouched, so plain-text FASTQ pays only a bufio layer it would get
// from the scanner anyway.
//
// When the returned reader is a decompressor it is also an
// io.ReadCloser; callers abandoning the stream early should Close it
// (CloseSniffed does so safely for any sniffed reader).
func Sniff(r io.Reader, opt SniffOptions) (io.Reader, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	head, _ := br.Peek(len(gzipMagic))
	if len(head) < len(gzipMagic) || [2]byte(head) != gzipMagic {
		// Not gzip (a stream shorter than the magic cannot be): the
		// scanner reports whatever is wrong with it on its own terms.
		return br, nil
	}
	zr, err := pargz.NewReader(br, pargz.Options{
		Name:    opt.Name,
		Workers: opt.Threads,
		Trace:   opt.Trace,
	})
	if err != nil {
		return nil, err
	}
	return zr, nil
}

// CloseSniffed releases the decode goroutines behind a reader returned
// by Sniff, if any. Safe on plain (non-compressed) sniffed readers.
func CloseSniffed(r io.Reader) {
	if c, ok := r.(io.Closer); ok {
		c.Close()
	}
}
