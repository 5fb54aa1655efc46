package pargz

// This file is the member-parallel engine: boundary scanners that find
// compressed member extents without inflating (BGZF BC subfield), a
// bounded worker pool inflating members out of
// order, and the in-order chunk sequence the scanner pre-threads so
// the consumer reassembles for free.

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

const (
	gzipID1 = 0x1f
	gzipID2 = 0x8b
	gzipCM  = 8 // DEFLATE, the only defined method

	flgFEXTRA = 1 << 2

	// bgzfHeaderLen is the fixed prefix a BC probe needs: 10-byte base
	// header + 2-byte XLEN.
	bgzfHeaderLen = 12
	// minMemberSize is the smallest well-formed gzip member: 10-byte
	// header + 2-byte empty deflate stream + 8-byte trailer.
	minMemberSize = 20
)

// memberJob carries one compressed member to the worker pool. comp is
// pooled; the worker returns it after inflating.
type memberJob struct {
	c      *chunk
	comp   *bytes.Buffer
	index  int
	offset int64
}

var (
	// compPool recycles compressed-member staging buffers (scanner →
	// worker); decPool recycles decoded-output buffers (worker →
	// consumer, returned via chunk.recycle).
	compPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}
	decPool  = sync.Pool{New: func() any { return new(bytes.Buffer) }}
)

// peekMemberBSize probes the gzip member header at the reader's current
// position without consuming anything. It returns the member's total
// compressed size if the header carries a BGZF BC subfield, -1 for a
// valid gzip header without one, io.EOF at a clean end of stream, and
// an error for a damaged header.
func peekMemberBSize(br *bufio.Reader) (int, error) {
	hdr, err := br.Peek(bgzfHeaderLen)
	if err != nil {
		if len(hdr) == 0 && err == io.EOF {
			return 0, io.EOF
		}
		if len(hdr) >= 2 && (hdr[0] != gzipID1 || hdr[1] != gzipID2) {
			return 0, errNotGzip
		}
		if err == io.EOF {
			return 0, fmt.Errorf("truncated gzip header (%d bytes): %w", len(hdr), io.ErrUnexpectedEOF)
		}
		return 0, err
	}
	if hdr[0] != gzipID1 || hdr[1] != gzipID2 {
		return 0, errNotGzip
	}
	if hdr[2] != gzipCM {
		return 0, fmt.Errorf("unknown gzip compression method %d", hdr[2])
	}
	if hdr[3]&flgFEXTRA == 0 {
		return -1, nil
	}
	xlen := int(binary.LittleEndian.Uint16(hdr[10:12]))
	full, err := br.Peek(bgzfHeaderLen + xlen)
	if err != nil {
		if err == bufio.ErrBufferFull {
			// EXTRA too large to probe: not BGZF-shaped; let the generic
			// tier decode it.
			return -1, nil
		}
		return 0, fmt.Errorf("truncated gzip EXTRA field: %w", io.ErrUnexpectedEOF)
	}
	extra := full[bgzfHeaderLen : bgzfHeaderLen+xlen]
	for i := 0; i+4 <= len(extra); {
		slen := int(binary.LittleEndian.Uint16(extra[i+2 : i+4]))
		if i+4+slen > len(extra) {
			break // malformed subfield chain: treat as plain gzip
		}
		if extra[i] == 'B' && extra[i+1] == 'C' && slen == 2 {
			bsize := int(binary.LittleEndian.Uint16(extra[i+4:i+6])) + 1
			if bsize < bgzfHeaderLen+xlen+8 {
				return 0, fmt.Errorf("BGZF BC subfield declares impossible block size %d", bsize)
			}
			return bsize, nil
		}
		i += 4 + slen
	}
	return -1, nil
}

// startMembers launches the member-parallel machinery: one goroutine
// scanning BGZF boundaries, and workers inflating the members it
// queues.
func (r *Reader) startMembers(br *bufio.Reader, workers int) {
	work := make(chan *memberJob, 2*workers)
	r.wg.Add(1 + workers)
	go func() {
		defer r.wg.Done()
		defer close(r.chunks)
		defer close(work)
		r.scanBGZF(br, work)
	}()
	for i := 0; i < workers; i++ {
		go r.memberWorker(work)
	}
}

// queueMember stages one compressed member of the given size for the
// pool: it reads the member bytes, pre-threads a pending chunk into the
// in-order sequence, and hands the job to a worker. Returns false when
// the scanner should stop (error emitted or reader closed).
func (r *Reader) queueMember(br *bufio.Reader, work chan<- *memberJob, size int, index int, offset int64) bool {
	comp := compPool.Get().(*bytes.Buffer)
	comp.Reset()
	if _, err := io.CopyN(comp, br, int64(size)); err != nil {
		compPool.Put(comp)
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		r.sendChunk(r.errChunk(offset, fmt.Errorf(
			"gzip member %d truncated mid-member (want %d bytes): %w", index, size, err)))
		return false
	}
	r.comp.Add(int64(size))
	c := &chunk{ready: make(chan struct{})}
	job := &memberJob{c: c, comp: comp, index: index, offset: offset}
	if !r.sendChunk(c) {
		compPool.Put(comp)
		return false
	}
	select {
	case work <- job:
		return true
	case <-r.stop:
		// The chunk is already threaded but will never be filled; the
		// consumer is gone too (stop is only closed by Close), so nothing
		// blocks on it.
		compPool.Put(comp)
		return false
	}
}

// scanBGZF walks BC-subfield members. A mid-stream member without a BC
// subfield demotes the rest of the stream to the serial pipelined
// decoder — valid concatenations (bgzip output followed by plain gzip)
// still decode, just without member parallelism for the tail.
func (r *Reader) scanBGZF(br *bufio.Reader, work chan<- *memberJob) {
	var offset int64
	for index := 0; ; index++ {
		bsize, err := peekMemberBSize(br)
		if err == io.EOF {
			return
		}
		if err != nil {
			if err == errNotGzip {
				err = fmt.Errorf("trailing garbage after gzip member %d: %w", index, err)
			}
			r.sendChunk(r.errChunk(offset, err))
			return
		}
		if bsize < 0 {
			r.streamProduce(br, offset)
			return
		}
		if !r.queueMember(br, work, bsize, index, offset) {
			return
		}
		offset += int64(bsize)
	}
}

// memberWorker inflates queued members into pooled buffers and marks
// their chunks ready. Workers exit when the scanner closes the queue.
func (r *Reader) memberWorker(work <-chan *memberJob) {
	defer r.wg.Done()
	zr := new(gzip.Reader)
	for job := range work {
		sp := r.trace.StartSpan("gunzip")
		out := decPool.Get().(*bytes.Buffer)
		out.Reset()
		err := inflateMember(zr, job.comp.Bytes(), out)
		sp.End()
		compPool.Put(job.comp)
		if err != nil {
			decPool.Put(out)
			job.c.err = r.ctxErr(job.offset, fmt.Errorf("gzip member %d: %w", job.index, err))
		} else {
			job.c.data = out.Bytes()
			job.c.recycle = func() { decPool.Put(out) }
			r.members.Add(1)
		}
		close(job.c.ready)
	}
}

// inflateMember decodes exactly one gzip member from comp into out,
// verifying the CRC (stdlib does, at stream end) and rejecting bytes
// beyond the member's trailer.
func inflateMember(zr *gzip.Reader, comp []byte, out *bytes.Buffer) error {
	br := bytes.NewReader(comp)
	if err := zr.Reset(br); err != nil {
		return err
	}
	zr.Multistream(false)
	if _, err := out.ReadFrom(zr); err != nil {
		return unexpectedEOF(err)
	}
	if err := zr.Close(); err != nil {
		return err
	}
	if br.Len() != 0 {
		return fmt.Errorf("%d bytes beyond the member trailer", br.Len())
	}
	return nil
}

// unexpectedEOF upgrades a bare io.EOF — meaningless mid-structure —
// to io.ErrUnexpectedEOF so callers and tests see a truncation.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// SplitMembers splits a whole in-memory BGZF stream into its
// compressed members (benchmark and test plumbing: the repository
// benchmark counts the members of its BGZF input). Every member
// must carry a BC subfield; without one no boundary can be found
// without inflating, which is an error.
func SplitMembers(data []byte) ([][]byte, error) {
	var members [][]byte
	br := bufio.NewReaderSize(bytes.NewReader(data), 64<<10)
	var offset int
	for {
		bsize, err := peekMemberBSize(br)
		if err == io.EOF {
			if len(members) == 0 {
				return nil, fmt.Errorf("pargz: empty stream")
			}
			return members, nil
		}
		if err != nil {
			return nil, fmt.Errorf("pargz: offset %d: %w", offset, err)
		}
		if bsize < 0 {
			return nil, fmt.Errorf("pargz: offset %d: member has no BC subfield; boundaries unknown", offset)
		}
		if offset+bsize > len(data) {
			return nil, fmt.Errorf("pargz: offset %d: member truncated", offset)
		}
		members = append(members, data[offset:offset+bsize])
		if _, err := br.Discard(bsize); err != nil {
			return nil, err
		}
		offset += bsize
	}
}
