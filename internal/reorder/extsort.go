package reorder

import (
	"bufio"
	"cmp"
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"

	"sage/internal/fastq"
	"sage/internal/genome"
)

// DefaultMemBudget is the in-memory buffer the external sort and the
// Restorer fill before spilling to disk (256 MiB).
const DefaultMemBudget = 256 << 20

// SortConfig bounds an external sort or a Restorer.
type SortConfig struct {
	// MemBudget is the approximate record-buffer size in bytes that
	// triggers a spill (<= 0 uses DefaultMemBudget).
	MemBudget int64
	// TmpDir is where spill files are created ("" uses os.TempDir()).
	// They are removed when the sort finishes, errors, or is closed.
	TmpDir string
}

func (c *SortConfig) memBudget() int64 {
	if c.MemBudget <= 0 {
		return DefaultMemBudget
	}
	return c.MemBudget
}

// group is one sort unit: a single record, or an R1/R2 mate pair that
// must move together. Units are ordered by (key, seq); seq is the
// original index of the first record, so equal keys keep input order
// and the sort is fully deterministic.
type group struct {
	key  uint64
	seq  int64
	recs []fastq.Record
}

// bytes approximates the unit's resident size for budget accounting.
func (g *group) bytes() int64 {
	n := int64(48)
	for i := range g.recs {
		r := &g.recs[i]
		n += int64(len(r.Header)+len(r.Seq)+len(r.Qual)) + 96
	}
	return n
}

// testSpillWriter, when non-nil, wraps every spill-file writer, the
// sort's runs and the Restorer's one file alike — the fault-injection
// point for the no-orphaned-temp-files tests.
var testSpillWriter func(io.Writer) io.Writer

// extSorter is a bounded-memory external merge sort over groups:
// add() buffers until the budget, then sorts and spills a run file;
// finish() returns a merge iterator over the runs (or over the sorted
// in-memory buffer when nothing spilled).
type extSorter struct {
	cfg       SortConfig
	pending   []group
	pendBytes int64
	runs      []*runFile
	spilled   int
	closed    bool
}

// runFile is one spilled sorted run.
type runFile struct {
	f    *os.File
	path string
}

func newExtSorter(cfg SortConfig) *extSorter {
	return &extSorter{cfg: cfg}
}

// spills returns the number of runs spilled so far.
func (s *extSorter) spills() int { return s.spilled }

// add buffers one group, spilling a sorted run when the memory budget
// fills. On error the partial run is already removed; the caller still
// owes a close() for earlier runs.
func (s *extSorter) add(g group) error {
	if s.closed {
		return fmt.Errorf("reorder: add after close")
	}
	s.pending = append(s.pending, g)
	s.pendBytes += g.bytes()
	if s.pendBytes >= s.cfg.memBudget() {
		return s.spill()
	}
	return nil
}

// sortGroups orders gs by (key, seq); seq is unique, so the order is
// total and needs no stable sort.
func sortGroups(gs []group) {
	slices.SortFunc(gs, func(a, b group) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
}

// spill sorts the pending buffer and writes it as one run file. A
// write failure removes the partial run before returning.
func (s *extSorter) spill() error {
	sortGroups(s.pending)
	f, err := os.CreateTemp(s.cfg.TmpDir, "sage-sort-*.run")
	if err != nil {
		return fmt.Errorf("reorder: creating run file: %w", err)
	}
	var w io.Writer = f
	if testSpillWriter != nil {
		w = testSpillWriter(w)
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	for i := range s.pending {
		if err = writeGroup(bw, &s.pending[i]); err != nil {
			break
		}
	}
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		f.Close()
		os.Remove(f.Name())
		return fmt.Errorf("reorder: spilling run to %s: %w", f.Name(), err)
	}
	s.runs = append(s.runs, &runFile{f: f, path: f.Name()})
	s.spilled++
	// Keep pending's capacity for the next run, but drop its records.
	clear(s.pending)
	s.pending = s.pending[:0]
	s.pendBytes = 0
	return nil
}

// finish seals the sort and returns the merge iterator. When runs were
// spilled the in-memory tail becomes the final run so the merge reads
// every group the same way; otherwise the buffer is sorted and served
// from memory. On error the sorter is closed (runs removed).
func (s *extSorter) finish() (*mergeIter, error) {
	if s.closed {
		return nil, fmt.Errorf("reorder: finish after close")
	}
	if len(s.runs) == 0 {
		sortGroups(s.pending)
		return &mergeIter{mem: s.pending}, nil
	}
	if len(s.pending) > 0 {
		if err := s.spill(); err != nil {
			s.close()
			return nil, err
		}
	}
	it := &mergeIter{}
	for _, r := range s.runs {
		if _, err := r.f.Seek(0, io.SeekStart); err != nil {
			s.close()
			return nil, fmt.Errorf("reorder: rewinding run %s: %w", r.path, err)
		}
		rr := &runReader{br: bufio.NewReaderSize(r.f, 1<<16)}
		ok, err := rr.advance()
		if err != nil {
			s.close()
			return nil, err
		}
		if ok {
			it.heap = append(it.heap, rr)
		}
	}
	heap.Init(&it.heap)
	return it, nil
}

// close removes every run file. Idempotent; errors from removal are
// reported but never mask data errors (callers close on failure paths).
func (s *extSorter) close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	for _, r := range s.runs {
		if err := r.f.Close(); err != nil && first == nil {
			first = err
		}
		if err := os.Remove(r.path); err != nil && first == nil {
			first = err
		}
	}
	s.runs = nil
	s.pending = nil
	s.pendBytes = 0
	return first
}

// mergeIter yields groups in (key, seq) order, either from the sorted
// in-memory buffer or by k-way merge over the spilled runs.
type mergeIter struct {
	mem  []group
	pos  int
	heap runHeap
}

// next returns the next group; ok=false means the iterator is drained.
func (it *mergeIter) next() (group, bool, error) {
	if it.heap.Len() > 0 {
		rr := it.heap[0]
		g := rr.cur
		ok, err := rr.advance()
		if err != nil {
			return group{}, false, err
		}
		if ok {
			heap.Fix(&it.heap, 0)
		} else {
			heap.Pop(&it.heap)
		}
		return g, true, nil
	}
	if it.pos < len(it.mem) {
		g := it.mem[it.pos]
		it.pos++
		return g, true, nil
	}
	return group{}, false, nil
}

// runReader streams one spilled run.
type runReader struct {
	br   *bufio.Reader
	cur  group
	lens []uint64 // the current group's record lengths, three a record
	hdr  []byte   // the current group's header bytes
}

// advance decodes the run's next group into cur; ok=false at EOF.
func (r *runReader) advance() (bool, error) {
	g, err := r.readGroup()
	if err == io.EOF {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("reorder: reading spilled run: %w", err)
	}
	r.cur = g
	return true, nil
}

// runHeap is a min-heap of runReaders ordered by their current group.
type runHeap []*runReader

func (h runHeap) Len() int { return len(h) }
func (h runHeap) Less(i, j int) bool {
	if h[i].cur.key != h[j].cur.key {
		return h[i].cur.key < h[j].cur.key
	}
	return h[i].cur.seq < h[j].cur.seq
}
func (h runHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *runHeap) Push(x any)   { *h = append(*h, x.(*runReader)) }
func (h *runHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// Run-file wire format, per group: key uvarint, seq uvarint, record
// count uvarint; per record its header length, sequence length and
// quality length+1 (0 encodes a nil Qual, distinguishing "no quality"
// from "empty quality") as uvarints; then every record's header bytes,
// then every record's sequence codes and quality bytes. The lengths
// first let readGroup size one string for the headers and one buffer for
// the rest.

func writeGroup(bw *bufio.Writer, g *group) error {
	var tmp [binary.MaxVarintLen64]byte
	putUv := func(v uint64) error {
		n := binary.PutUvarint(tmp[:], v)
		_, err := bw.Write(tmp[:n])
		return err
	}
	if err := putUv(g.key); err != nil {
		return err
	}
	if err := putUv(uint64(g.seq)); err != nil {
		return err
	}
	if err := putUv(uint64(len(g.recs))); err != nil {
		return err
	}
	for i := range g.recs {
		r := &g.recs[i]
		qlen := uint64(0)
		if r.Qual != nil {
			qlen = uint64(len(r.Qual)) + 1
		}
		for _, v := range [3]uint64{uint64(len(r.Header)), uint64(len(r.Seq)), qlen} {
			if err := putUv(v); err != nil {
				return err
			}
		}
	}
	for i := range g.recs {
		if _, err := bw.WriteString(g.recs[i].Header); err != nil {
			return err
		}
	}
	for i := range g.recs {
		r := &g.recs[i]
		if _, err := bw.Write(r.Seq); err != nil {
			return err
		}
		if _, err := bw.Write(r.Qual); err != nil {
			return err
		}
	}
	return nil
}

// readGroup decodes the run's next group. Whatever its record count, a
// group costs three allocations: its records, one string its headers
// share, and one buffer its sequences and qualities share, each slice
// capped at its own end. r.lens and r.hdr are staging reused across
// groups.
func (r *runReader) readGroup() (group, error) {
	var g group
	key, err := binary.ReadUvarint(r.br)
	if err != nil {
		// A clean EOF at a group boundary ends the run.
		if err == io.EOF {
			return g, io.EOF
		}
		return g, err
	}
	g.key = key
	seq, err := readUv(r.br)
	if err != nil {
		return g, err
	}
	g.seq = int64(seq)
	n, err := readUv(r.br)
	if err != nil {
		return g, err
	}
	lens := r.lens[:0]
	var hbytes, body uint64
	for range n {
		var l [3]uint64
		for j := range l {
			if l[j], err = readUv(r.br); err != nil {
				return g, err
			}
		}
		lens = append(lens, l[:]...)
		hbytes += l[0]
		body += l[1] + max(l[2], 1) - 1
	}
	r.lens = lens
	if uint64(cap(r.hdr)) < hbytes {
		r.hdr = make([]byte, hbytes)
	}
	if _, err := io.ReadFull(r.br, r.hdr[:hbytes]); err != nil {
		return g, noEOF(err)
	}
	headers := string(r.hdr[:hbytes])
	buf := make([]byte, body)
	if _, err := io.ReadFull(r.br, buf); err != nil {
		return g, noEOF(err)
	}
	g.recs = make([]fastq.Record, n)
	var h, b uint64
	for i := range g.recs {
		rec, l := &g.recs[i], lens[3*i:3*i+3]
		rec.Header = headers[h : h+l[0]]
		h += l[0]
		rec.Seq = genome.Seq(buf[b : b+l[1] : b+l[1]])
		b += l[1]
		if l[2] > 0 {
			rec.Qual = buf[b : b+l[2]-1 : b+l[2]-1]
			b += l[2] - 1
		}
	}
	return g, nil
}

// readUv reads a varint that must exist: EOF mid-group is truncation,
// not a clean end.
func readUv(br *bufio.Reader) (uint64, error) {
	v, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, noEOF(err)
	}
	return v, nil
}

// noEOF promotes EOF to ErrUnexpectedEOF: inside a group, running out
// of bytes means the run file is truncated.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
