package reorder

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"

	"sage/internal/fastq"
)

// Restorer recovers original input order from a permuted record
// stream. Records arrive tagged with their original index (the
// container's permutation block), and those indices are exactly
// 0..n−1, so no comparison is needed: each record goes to its slot.
//
// Records buffer in memory until the SortConfig budget first fills; if
// the stream ends first, Emit places each at out[idx]. Otherwise the
// number of records held at that moment becomes the range width W, and
// range r holds the indices [r·W, (r+1)·W) — about one budget of
// records. From then on every record is encoded onto its range's
// buffer, and whenever the buffers exceed the budget they flush as
// chunks into one spill file. Emit reads each range's chunks back into
// one reused buffer and scatters its records to their slots, so peak
// memory is O(budget + one range) however large the stream.
type Restorer struct {
	cfg SortConfig

	// recs and idx hold the records (and their original indices) added
	// before the budget first filled; size is their approximate
	// resident bytes, then the encoded bytes of the unflushed ranges.
	recs []fastq.Record
	idx  []int64
	size int64

	width  int64 // W; 0 while everything is still in recs
	ranges map[int64]*span
	dirty  []*span  // the ranges with unflushed records, in order
	f      *os.File // the spill file, created at the first flush
	w      io.Writer
	off    int64

	n       int64 // records added
	max     int64 // largest index added
	err     error // a failed spill poisons the restorer
	emitted bool
	closed  bool
}

// span is one key range: its encoded records not yet flushed, and the
// chunks of the spill file that hold the rest.
type span struct {
	buf    []byte
	chunks []chunk
}

type chunk struct{ off, n int64 }

// NewRestorer builds an original-order restorer.
func NewRestorer(cfg SortConfig) *Restorer {
	return &Restorer{cfg: cfg, max: -1}
}

// Add buffers one record under its original index. The record's slices
// are kept, not copied, until the budget first fills.
func (r *Restorer) Add(origIdx int64, rec fastq.Record) error {
	switch {
	case r.err != nil:
		return r.err
	case r.emitted || r.closed:
		return fmt.Errorf("reorder: Add after Emit or Close")
	case origIdx < 0:
		return fmt.Errorf("reorder: negative original index %d", origIdx)
	}
	r.n++
	r.max = max(r.max, origIdx)
	budget := r.cfg.memBudget()
	if r.width > 0 {
		r.encode(origIdx, &rec)
	} else {
		r.recs = append(grow(r.recs, 1), rec)
		r.idx = append(grow(r.idx, 1), origIdx)
		// A fastq.Record is 64 bytes and its index 8.
		r.size += int64(len(rec.Header)+len(rec.Seq)+len(rec.Qual)) + 72
		if r.size < budget {
			return nil
		}
		// The budget is full: what it holds fixes the range width. Each
		// range's buffer starts a quarter larger than it needs now, so a
		// buffer rarely grows once the spills begin.
		r.width = int64(len(r.recs))
		r.ranges = make(map[int64]*span)
		need := make(map[int64]int)
		for i := range r.recs {
			need[r.idx[i]/r.width] += encodedLen(&r.recs[i])
		}
		for rg, n := range need {
			r.ranges[rg] = &span{buf: make([]byte, 0, n+n/4)}
		}
		r.size = 0
		for i := range r.recs {
			r.encode(r.idx[i], &r.recs[i])
		}
		r.recs, r.idx = nil, nil
	}
	if r.size > budget {
		return r.flush()
	}
	return nil
}

// encode appends rec to its range's buffer: its slot within the range,
// then header, sequence and quality, each length-prefixed. Quality is
// stored as length+1, so 0 keeps a nil Qual apart from an empty one.
func (r *Restorer) encode(idx int64, rec *fastq.Record) {
	rg := idx / r.width
	s := r.ranges[rg]
	if s == nil {
		s = &span{}
		r.ranges[rg] = s
	}
	if len(s.buf) == 0 {
		r.dirty = append(r.dirty, s)
	}
	b := grow(s.buf, encodedLen(rec))
	b = binary.AppendUvarint(b, uint64(idx-rg*r.width))
	b = binary.AppendUvarint(b, uint64(len(rec.Header)))
	b = append(b, rec.Header...)
	b = binary.AppendUvarint(b, uint64(len(rec.Seq)))
	b = append(b, rec.Seq...)
	if rec.Qual == nil {
		b = append(b, 0)
	} else {
		b = binary.AppendUvarint(b, uint64(len(rec.Qual))+1)
		b = append(b, rec.Qual...)
	}
	r.size += int64(len(b) - len(s.buf))
	s.buf = b
}

// encodedLen bounds the bytes encode appends for rec.
func encodedLen(rec *fastq.Record) int {
	return len(rec.Header) + len(rec.Seq) + len(rec.Qual) + 4*binary.MaxVarintLen64
}

// flush appends each range's buffered bytes to the spill file as one
// chunk. A range buffer that grew past four times its share of
// the budget is dropped rather than kept for reuse, so the retained
// buffers stay O(budget) whatever order the indices come in.
func (r *Restorer) flush() error {
	if r.f == nil {
		f, err := os.CreateTemp(r.cfg.TmpDir, "sage-sort-*.run")
		if err != nil {
			r.err = fmt.Errorf("reorder: creating spill file: %w", err)
			return r.err
		}
		r.f, r.w = f, f
		if testSpillWriter != nil {
			r.w = testSpillWriter(f)
		}
	}
	keep := 4 * r.cfg.memBudget() / int64(len(r.ranges))
	for _, s := range r.dirty {
		n, err := r.w.Write(s.buf)
		if err != nil {
			r.err = fmt.Errorf("reorder: spilling to %s at byte %d: %w", r.f.Name(), r.off+int64(n), err)
			return r.err
		}
		s.chunks = append(s.chunks, chunk{r.off, int64(n)})
		r.off += int64(n)
		s.buf = s.buf[:0]
		if int64(cap(s.buf)) > keep {
			s.buf = nil
		}
	}
	r.dirty = r.dirty[:0]
	r.size = 0
	return nil
}

// Emit calls fn on every buffered record in original order. Call once,
// after the last Add. rec — its header, sequence and quality included —
// is valid only until fn returns: a spilled range's records alias a
// buffer the next range reuses. Emit returns an error naming the index
// unless the indices added are exactly 0..n−1: one repeated, one
// missing, or one at or past the number of records added.
func (r *Restorer) Emit(fn func(rec *fastq.Record) error) error {
	switch {
	case r.err != nil:
		return r.err
	case r.emitted || r.closed:
		return fmt.Errorf("reorder: Emit after Emit or Close")
	}
	r.emitted = true
	if r.max >= r.n {
		return fmt.Errorf("reorder: original index %d is outside the %d records added (an index below it is missing)", r.max, r.n)
	}
	if r.width == 0 {
		_, err := scatter(r.recs, r.idx, 0, r.n, nil, fn)
		return err
	}
	var (
		buf, hdr []byte
		hend     []int
		recs     []fastq.Record
		idx      []int64
		slots    []int
		err      error
	)
	for base := int64(0); base < r.n; base += r.width {
		buf = buf[:0]
		if s := r.ranges[base/r.width]; s != nil {
			total := len(s.buf)
			for _, c := range s.chunks {
				total += int(c.n)
			}
			if cap(buf) < total {
				// Ranges are about equal: a quarter to spare spares the
				// next range a reallocation.
				buf = make([]byte, 0, total+total/4)
			}
			for _, c := range s.chunks {
				m := len(buf)
				buf = buf[:m+int(c.n)]
				if _, err := r.f.ReadAt(buf[m:], c.off); err != nil {
					return fmt.Errorf("reorder: reading %d bytes at %d of %s: %w", c.n, c.off, r.f.Name(), err)
				}
			}
			buf = append(buf, s.buf...)
		}
		// A range holds width records unless its indices are wrong.
		recs, idx, hend = grow(recs[:0], int(r.width)), grow(idx[:0], int(r.width)), grow(hend[:0], int(r.width))
		hdr = hdr[:0]
		c := cursor{b: buf}
		for len(c.b) > 0 && !c.bad {
			slot := c.uvarint()
			hdr = append(hdr, c.bytes(c.uvarint())...)
			rec := fastq.Record{Seq: c.bytes(c.uvarint())}
			if ql := c.uvarint(); ql > 0 {
				rec.Qual = c.bytes(ql - 1)
			}
			recs = append(recs, rec)
			idx = append(idx, base+int64(slot))
			hend = append(hend, len(hdr))
		}
		if c.bad {
			return fmt.Errorf("reorder: records of indices [%d, %d) in %s are corrupt", base, base+r.width, r.f.Name())
		}
		// One string holds the range's headers.
		hs, start := string(hdr), 0
		for i, end := range hend {
			recs[i].Header = hs[start:end]
			start = end
		}
		if slots, err = scatter(recs, idx, base, min(r.width, r.n-base), slots, fn); err != nil {
			return err
		}
	}
	return nil
}

// grow makes room for n more elements, doubling where append grows a
// large slice by 1.25×: a slice built an element at a time then costs
// about twice its final size in allocation, not five times.
func grow[S ~[]E, E any](s S, n int) S {
	if cap(s)-len(s) < n {
		s = slices.Grow(s, len(s)+n)
	}
	return s
}

// cursor reads a range's records out of its buffer; a malformed or
// short field sets bad, after which every read returns nothing.
type cursor struct {
	b   []byte
	bad bool
}

func (c *cursor) uvarint() uint64 {
	if c.bad {
		return 0
	}
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		c.bad = true
		return 0
	}
	c.b = c.b[n:]
	return v
}

// bytes returns the next n bytes, aliasing the buffer.
func (c *cursor) bytes(n uint64) []byte {
	if c.bad || n > uint64(len(c.b)) {
		c.bad = true
		return nil
	}
	p := c.b[:n:n]
	c.b = c.b[n:]
	return p
}

// scatter calls fn on recs in the order of their original indices,
// which must be exactly base..base+width−1. slots is reused scratch:
// slots[i] is one more than the position in recs of index base+i.
func scatter(recs []fastq.Record, idx []int64, base, width int64, slots []int, fn func(*fastq.Record) error) ([]int, error) {
	slots = slices.Grow(slots[:0], int(width))[:width]
	clear(slots)
	for i, x := range idx {
		s := x - base
		if uint64(s) >= uint64(width) {
			return slots, fmt.Errorf("reorder: original index %d is outside [%d, %d)", x, base, base+width)
		}
		if slots[s] != 0 {
			return slots, fmt.Errorf("reorder: original index %d repeated", x)
		}
		slots[s] = i + 1
	}
	for s, p := range slots {
		if p == 0 {
			return slots, fmt.Errorf("reorder: original index %d missing", base+int64(s))
		}
		if err := fn(&recs[p-1]); err != nil {
			return slots, err
		}
	}
	return slots, nil
}

// Close removes the restorer's spill file. Idempotent; always safe.
func (r *Restorer) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.recs, r.idx, r.ranges, r.dirty = nil, nil, nil, nil
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	if rerr := os.Remove(r.f.Name()); err == nil {
		err = rerr
	}
	return err
}
