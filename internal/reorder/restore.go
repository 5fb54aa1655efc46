package reorder

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"

	"sage/internal/fastq"
	"sage/internal/genome"
)

// Restorer recovers original input order from a permuted record
// stream. Records arrive as opaque bytes — FASTQ text as the decoder
// renders it — tagged with their original index (the container's
// permutation block), and those indices are exactly 0..n−1, so no
// comparison is needed: each record goes to its slot.
//
// Every record is stored as its slot, its length and its bytes. Until
// the SortConfig budget first fills, records go onto an arena of blocks
// with their index as their slot; if the stream ends first, WriteTo
// writes them in index order straight out of it. Otherwise the number of
// records held at that moment becomes the range width W, and range r
// holds the indices [r·W, (r+1)·W) — about one budget of records. From
// then on every record goes onto its range's buffer with its slot
// within the range, and whenever the buffers exceed the budget they
// flush as chunks into one spill file. WriteTo reads each range's
// chunks back into one buffer and writes its records in slot order, so
// peak memory is O(budget + one range) however large the stream.
//
// A restore allocates its buffers as it needs them and drops them at
// Close. The arena grows a block at a time and never copies what it
// holds; one read-back buffer and one slot table serve every range.
type Restorer struct {
	cfg SortConfig

	arena [][]byte // the records until the budget first fills
	back  []byte   // WriteTo's read-back buffer, one range at a time
	slots []uint64 // WriteTo's slot table; see place

	size   int64 // bytes held: the arena, then the unflushed ranges
	width  int64 // W; 0 while everything is still in the arena
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

	text []byte // Add's rendering of one record
}

// span is one key range: its records not yet flushed, and the chunks
// of the spill file that hold the rest.
type span struct {
	buf    []byte
	chunks []chunk
}

type chunk struct{ off, n int64 }

// NewRestorer builds an original-order restorer.
func NewRestorer(cfg SortConfig) *Restorer {
	return &Restorer{cfg: cfg, max: -1}
}

// AddText stores one record's bytes under its original index. The
// bytes are copied: rec may be reused once AddText returns.
func (r *Restorer) AddText(origIdx int64, rec []byte) error {
	switch {
	case r.err != nil:
		return r.err
	case r.emitted || r.closed:
		return fmt.Errorf("reorder: Add after WriteTo, Emit or Close")
	case origIdx < 0:
		return fmt.Errorf("reorder: negative original index %d", origIdx)
	}
	r.n++
	r.max = max(r.max, origIdx)
	budget := r.cfg.memBudget()
	if r.width > 0 {
		r.encode(origIdx, rec)
	} else {
		r.store(uint64(origIdx), rec, budget)
		if r.size < budget {
			return nil
		}
		r.split()
	}
	if r.size > budget {
		return r.flush()
	}
	return nil
}

// Arena blocks start at minBlock bytes and double up to maxBlock; a
// record larger than that gets a block of its own.
const minBlock, maxBlock = 4 << 10, 1 << 20

// store appends one record to the arena's last block, or to a new one
// when it does not fit there. A new block is no larger than what is
// left of the budget, so the arena ends about one budget in size.
func (r *Restorer) store(slot uint64, rec []byte, budget int64) {
	need := len(rec) + 2*binary.MaxVarintLen64
	last := len(r.arena) - 1
	if last < 0 || cap(r.arena[last])-len(r.arena[last]) < need {
		size := min(minBlock<<min(len(r.arena), 8), maxBlock, int(min(budget-r.size, maxBlock)))
		r.arena = append(r.arena, make([]byte, 0, max(size, need)))
		last++
	}
	n := len(r.arena[last])
	r.arena[last] = appendEntry(r.arena[last], slot, rec)
	r.size += int64(len(r.arena[last]) - n)
}

// split moves the arena's records onto their ranges once the budget is
// full: what the arena holds fixes the range width. Each range's buffer
// starts a quarter larger than it needs now, so a buffer rarely grows
// once the spills begin.
func (r *Restorer) split() {
	r.width = r.n
	r.ranges = make(map[int64]*span)
	need := make(map[int64]int)
	for _, b := range r.arena {
		for len(b) > 0 {
			idx, _, rest := nextEntry(b)
			need[int64(idx)/r.width] += len(b) - len(rest)
			b = rest
		}
	}
	for rg, n := range need {
		r.ranges[rg] = &span{buf: make([]byte, 0, n+n/4)}
	}
	r.size = 0
	for _, b := range r.arena {
		for len(b) > 0 {
			idx, rec, rest := nextEntry(b)
			r.encode(int64(idx), rec)
			b = rest
		}
	}
	r.arena = nil
}

// encode appends rec to its range's buffer under its slot within the
// range.
func (r *Restorer) encode(idx int64, rec []byte) {
	rg := idx / r.width
	s := r.ranges[rg]
	if s == nil {
		s = &span{}
		r.ranges[rg] = s
	}
	if len(s.buf) == 0 {
		r.dirty = append(r.dirty, s)
	}
	n := len(s.buf)
	s.buf = appendEntry(s.buf, uint64(idx-rg*r.width), rec)
	r.size += int64(len(s.buf) - n)
}

// appendEntry appends one stored record to b: its slot and its length,
// each a uvarint, then its bytes.
func appendEntry(b []byte, slot uint64, rec []byte) []byte {
	b = grow(b, len(rec)+2*binary.MaxVarintLen64)
	b = binary.AppendUvarint(b, slot)
	b = binary.AppendUvarint(b, uint64(len(rec)))
	return append(b, rec...)
}

// nextEntry splits the first entry off b, which this package wrote.
func nextEntry(b []byte) (slot uint64, rec, rest []byte) {
	slot, k := binary.Uvarint(b)
	n, m := binary.Uvarint(b[k:])
	b = b[k+m:]
	return slot, b[:n], b[n:]
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

// WriteTo writes every record's bytes to w in original order, through
// one buffered writer, and returns the bytes written. Call once, after
// the last AddText. It returns an error naming the index unless the
// indices added are exactly 0..n−1: one repeated, one missing, or one
// at or past the number of records added.
func (r *Restorer) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	var written int64
	err := r.each(func(rec []byte) error {
		n, err := bw.Write(rec)
		written += int64(n)
		return err
	})
	if err != nil {
		return written, err
	}
	return written, bw.Flush()
}

// Add is AddText for a record: it stores rec's FASTQ text
// (fastq.Record.AppendText). With Emit it serves callers that hold
// records rather than text.
func (r *Restorer) Add(origIdx int64, rec fastq.Record) error {
	r.text = rec.AppendText(r.text[:0])
	return r.AddText(origIdx, r.text)
}

// Emit is WriteTo as records: it calls fn on every record in original
// order, parsed back from the text Add stored. rec — its header,
// sequence and quality included — is valid only until fn returns. A
// record whose quality line is empty comes back with a nil Qual, as
// text cannot tell it from an empty one.
func (r *Restorer) Emit(fn func(rec *fastq.Record) error) error {
	var seq, qual []byte
	return r.each(func(b []byte) error {
		t, _, err := fastq.NextRecord(b)
		if err != nil {
			return fmt.Errorf("reorder: %w", err)
		}
		seq = seq[:0]
		for _, c := range t.Seq {
			code, ok := genome.CharToBase(c)
			if !ok {
				return fmt.Errorf("reorder: base %q in a stored record", c)
			}
			seq = append(seq, code)
		}
		rec := fastq.Record{Header: string(t.Bytes[1:bytes.IndexByte(t.Bytes, '\n')]), Seq: seq}
		if len(t.Qual) > 0 {
			qual = qual[:0]
			for _, c := range t.Qual {
				qual = append(qual, c-fastq.QualityOffset)
			}
			rec.Qual = qual
		}
		return fn(&rec)
	})
}

// each calls fn on every record's bytes in original order: the one
// restore behind WriteTo and Emit. rec aliases the arena or the
// read-back buffer, which the next range reuses.
func (r *Restorer) each(fn func(rec []byte) error) error {
	switch {
	case r.err != nil:
		return r.err
	case r.emitted || r.closed:
		return fmt.Errorf("reorder: WriteTo or Emit after WriteTo, Emit or Close")
	}
	r.emitted = true
	if r.max >= r.n {
		return fmt.Errorf("reorder: original index %d is outside the %d records added (an index below it is missing)", r.max, r.n)
	}
	if r.width == 0 {
		return r.place(r.arena, 0, r.n, fn)
	}
	for base := int64(0); base < r.n; base += r.width {
		buf := r.back[:0]
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
		r.back = buf
		if err := r.place([][]byte{buf}, base, min(r.width, r.n-base), fn); err != nil {
			return err
		}
	}
	return nil
}

// place calls fn on the records of blocks in slot order; their slots
// must be exactly 0..width−1, standing for the indices
// base..base+width−1.
func (r *Restorer) place(blocks [][]byte, base, width int64, fn func(rec []byte) error) error {
	slots := grow(r.slots[:0], int(width))[:width]
	r.slots = slots
	clear(slots)
	// slots[s] holds the number of slot s's block above bit 40 and, below
	// it, one more than the offset of slot s's length in that block: room
	// for 2²⁴ arena blocks of at most maxBlock, or one read-back buffer
	// of up to a TiB.
	const offBits = 40
	for b, buf := range blocks {
		for off := 0; off < len(buf); {
			slot, k := binary.Uvarint(buf[off:])
			n, m := uint64(0), 0
			if k > 0 {
				n, m = binary.Uvarint(buf[off+k:])
			}
			if k <= 0 || m <= 0 || n > uint64(len(buf)-off-k-m) {
				where := "memory"
				if r.f != nil {
					where = r.f.Name()
				}
				return fmt.Errorf("reorder: records of indices [%d, %d) in %s are corrupt", base, base+width, where)
			}
			switch {
			case slot >= uint64(width):
				return fmt.Errorf("reorder: original index %d is outside [%d, %d)", base+int64(slot), base, base+width)
			case slots[slot] != 0:
				return fmt.Errorf("reorder: original index %d repeated", base+int64(slot))
			}
			slots[slot] = uint64(b)<<offBits | uint64(off+k+1)
			off += k + m + int(n)
		}
	}
	for s, p := range slots {
		if p == 0 {
			return fmt.Errorf("reorder: original index %d missing", base+int64(s))
		}
		buf, off := blocks[p>>offBits], int(p&(1<<offBits-1))-1
		n, m := binary.Uvarint(buf[off:])
		start := off + m
		if err := fn(buf[start : start+int(n)]); err != nil {
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

// Close removes the restorer's spill file and drops its buffers.
// Idempotent; always safe.
func (r *Restorer) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.arena, r.back, r.slots, r.text = nil, nil, nil, nil
	r.ranges, r.dirty = nil, nil
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	if rerr := os.Remove(r.f.Name()); err == nil {
		err = rerr
	}
	return err
}
