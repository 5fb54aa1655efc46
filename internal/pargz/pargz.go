// Package pargz is the streaming gzip accelerator on SAGe's ingest
// path. The paper's thesis is that data preparation — not analysis —
// is the bottleneck (§2), and PR 9's transparent gzip ingest re-created
// exactly that imbalance in miniature: stdlib gzip inflates on one
// core, so at high shard-worker counts the decompressor becomes the
// writer's critical path. pargz removes the serial choke point with
// two tiers, stdlib-only:
//
//   - Member-parallel decode. Real archives are overwhelmingly
//     multi-member gzip: bgzip writes a BGZF "BC" EXTRA subfield whose
//     payload is the compressed block size, so member boundaries are
//     found *without inflating* and members decode on the repository's
//     ordered pool (internal/pool), which hands them to the consumer in
//     stream order. Each member inflates in one call on the package's
//     own DEFLATE kernel (inflate.go), into a buffer of exactly the size
//     its trailer declares. BGZF is the one member-parallel framing read
//     here — every htslib tool writes it.
//   - Pipelined readahead. Generic single-member gzip cannot be split,
//     but a dedicated decode goroutine filling a bounded ring of
//     reused buffers overlaps inflate with the parse→map→encode
//     stages instead of serializing with them.
//
// NewReader sniffs the input (the gzip header's BC subfield) and picks
// the tier; a BGZF stream that degenerates
// mid-way into plain gzip members falls back to the pipelined tier
// from that member on, so nothing valid is ever rejected. Errors are
// contextual — input name plus compressed byte offset — and surface
// in stream order: every byte before the damage is delivered first.
//
// The package also provides Writer, a bgzip-style multi-member gzip
// writer (BC subfields, trailing empty EOF member) used by `sage
// recompress` walkthroughs, fixtures, and benches.
package pargz

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sage/internal/obs"
)

// Tier identifies the decode strategy NewReader picked for an input.
type Tier int

const (
	// TierPipelined decodes generic gzip serially on a dedicated
	// goroutine, readahead-buffered so inflate overlaps the consumer.
	TierPipelined Tier = iota
	// TierBGZF decodes bgzip/BGZF members in parallel: boundaries come
	// from the BC EXTRA subfield, members inflate on the ordered pool.
	TierBGZF
)

// String names the tier the way docs and `sage recompress` report it.
func (t Tier) String() string {
	if t == TierBGZF {
		return "bgzf-parallel"
	}
	return "gzip-pipelined"
}

// readahead is the pipelined tier's ring depth (decoded buffers in
// flight between the decode goroutine and the consumer), each
// streamBufSize bytes.
const (
	readahead     = 8
	streamBufSize = 256 << 10
)

// Options configures a Reader.
type Options struct {
	// Name labels errors with the input's name (usually the file path);
	// empty omits it.
	Name string
	// Workers bounds member-parallel decode (0 = GOMAXPROCS). The
	// pipelined tier always uses one decode goroutine.
	Workers int
	// Trace, when non-nil, aggregates "gunzip" (worker inflate time)
	// and "gunzip-wait" (consumer stall) spans for ingest stage
	// attribution.
	Trace *obs.Trace
}

// Stats is a snapshot of a Reader's work so far.
type Stats struct {
	CompressedBytes int64 // gzip bytes consumed
	DecodedBytes    int64 // FASTQ-side bytes handed to the consumer
	Members         int64 // gzip members decoded (member-parallel tiers)
	Stalls          int64 // times Read had to wait for a decoded chunk
	StallTime       time.Duration
}

// chunk is one in-order unit of decoded output, or the error that ends
// the stream.
type chunk struct {
	data    []byte
	err     error
	recycle func()
}

// Reader streams the decoded bytes of a gzip or BGZF input. It is an
// io.ReadCloser; Read and Close must not race (the usual io contract).
// A Reader drained to EOF releases all its goroutines on its own;
// Close is only required when abandoning a stream early.
type Reader struct {
	tier Tier
	name string

	chunks chan *chunk
	stop   chan struct{}
	once   sync.Once
	done   chan struct{} // closed when the tier's goroutine has returned

	cur *chunk
	pos int
	err error

	trace *obs.Trace

	comp    atomic.Int64
	dec     atomic.Int64
	members atomic.Int64
	stalls  atomic.Int64
	stallNs atomic.Int64
}

var (
	errNotGzip = errors.New("not a gzip stream")
	// errClosed stops the member tier's pool once Close closed stop.
	errClosed = errors.New("pargz: reader closed")
)

// NewReader sniffs r (which must start with the gzip magic) and
// returns the decoding reader for the matching tier. Header-level
// damage in the first member surfaces here; later damage surfaces from
// Read at the exact compressed offset, after all preceding decoded
// bytes have been delivered.
func NewReader(r io.Reader, opt Options) (*Reader, error) {
	br, ok := r.(*bufio.Reader)
	if !ok || br.Size() < 64<<10 {
		br = bufio.NewReaderSize(r, 64<<10)
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rd := &Reader{
		name:   opt.Name,
		chunks: make(chan *chunk, max(2*workers, readahead)),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		trace:  opt.Trace,
	}
	bsize, err := peekMemberBSize(br)
	if err != nil {
		if err == io.EOF {
			err = errNotGzip
		}
		return nil, rd.ctxErr(0, err)
	}
	if bsize > 0 {
		rd.tier = TierBGZF
		rd.startMembers(br, workers)
		return rd, nil
	}
	rd.tier = TierPipelined
	if err := rd.startStream(br); err != nil {
		return nil, err
	}
	return rd, nil
}

// Tier reports which decode strategy the sniff selected.
func (r *Reader) Tier() Tier { return r.tier }

// Stats snapshots the reader's counters.
func (r *Reader) Stats() Stats {
	return Stats{
		CompressedBytes: r.comp.Load(),
		DecodedBytes:    r.dec.Load(),
		Members:         r.members.Load(),
		Stalls:          r.stalls.Load(),
		StallTime:       time.Duration(r.stallNs.Load()),
	}
}

// Read delivers decoded bytes in input order.
func (r *Reader) Read(p []byte) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	if len(p) == 0 {
		return 0, nil
	}
	for {
		if r.cur != nil {
			if r.pos < len(r.cur.data) {
				n := copy(p, r.cur.data[r.pos:])
				r.pos += n
				return n, nil
			}
			if r.cur.err != nil {
				r.err = r.cur.err
				return 0, r.err
			}
			if r.cur.recycle != nil {
				r.cur.recycle()
			}
			r.cur, r.pos = nil, 0
		}
		c, ok := r.nextChunk()
		if !ok {
			r.err = io.EOF
			return 0, io.EOF
		}
		r.dec.Add(int64(len(c.data)))
		r.cur, r.pos = c, 0
	}
}

// nextChunk takes the next in-order chunk, accounting any time spent
// waiting for decode as a readahead stall ("gunzip-wait" span + Stats
// stall counters). A decoded chunk already queued costs nothing.
func (r *Reader) nextChunk() (*chunk, bool) {
	select {
	case c, ok := <-r.chunks:
		return c, ok
	default:
	}
	sp := r.trace.StartSpan("gunzip-wait")
	start := time.Now()
	c, ok := <-r.chunks
	if !ok {
		return nil, false
	}
	sp.End()
	r.stalls.Add(1)
	r.stallNs.Add(int64(time.Since(start)))
	return c, true
}

// Close abandons the stream: decode goroutines unwind, buffers are
// dropped, and further Reads fail. Closing an already-drained reader
// is a no-op beyond marking it closed.
func (r *Reader) Close() error {
	r.once.Do(func() { close(r.stop) })
	if r.err == nil {
		r.err = errClosed
	}
	<-r.done
	return nil
}

// sendChunk delivers c in order, aborting if the reader was closed.
func (r *Reader) sendChunk(c *chunk) bool {
	select {
	case r.chunks <- c:
		return true
	case <-r.stop:
		return false
	}
}

// errChunk builds a terminal chunk carrying a contextual error at the
// given compressed offset.
func (r *Reader) errChunk(offset int64, err error) *chunk {
	return &chunk{err: r.ctxErr(offset, err)}
}

// ctxErr wraps err with the input name and compressed offset — the
// "file-and-offset" contract every ingest error keeps.
func (r *Reader) ctxErr(offset int64, err error) error {
	if r.name != "" {
		return fmt.Errorf("pargz: %s: compressed offset %d: %w", r.name, offset, err)
	}
	return fmt.Errorf("pargz: compressed offset %d: %w", offset, err)
}
