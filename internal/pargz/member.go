package pargz

// This file is the member-parallel tier: a boundary scanner that finds
// compressed member extents without inflating (BGZF BC subfield), and
// one goroutine that runs the repository's ordered pool (pool.Drain)
// over the members it finds — next reads the next member under the
// pool mutex, work inflates it, emit sends its chunk to the consumer in
// member order. A damaged member travels to emit as a value, so every
// byte before it is delivered first.

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"sage/internal/freelist"
	"sage/internal/pool"
)

const (
	gzipID1 = 0x1f
	gzipID2 = 0x8b
	gzipCM  = 8 // DEFLATE, the only defined method

	flgFEXTRA = 1 << 2

	// bgzfHeaderLen is the fixed prefix a BC probe needs: 10-byte base
	// header + 2-byte XLEN.
	bgzfHeaderLen = 12
)

// member is one compressed member the pool claimed: its bytes (comp,
// pooled; work returns them after inflating), its index in the stream
// and its compressed offset. A member whose header or bytes could not
// be read carries the error instead, and is the last one claimed.
type member struct {
	comp   *bytes.Buffer
	index  int
	offset int64
	err    error
}

var (
	// compPool recycles compressed-member staging buffers (scanner →
	// worker); decPool recycles decoded-output buffers (worker →
	// consumer, returned via chunk.recycle).
	compPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}
	decPool  = sync.Pool{New: func() any { return new(bytes.Buffer) }}
	// inflaters keeps gzip readers, whose inflate state is large,
	// between the members the workers decode.
	inflaters = freelist.New[gzip.Reader]()
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

// startMembers starts the member tier: one goroutine that runs the
// pool over the stream's members.
func (r *Reader) startMembers(br *bufio.Reader, workers int) {
	go func() {
		defer close(r.done)
		defer close(r.chunks)
		r.decodeMembers(br, workers)
	}()
}

// decodeMembers runs pool.Drain over the BC-subfield members of br.
// next reads the next member under the pool mutex, work inflates it,
// and emit sends its chunk in member order; emit stops the pool once
// Close closed stop, or once it delivered a chunk carrying an error,
// where the consumer stops reading. A member without a BC subfield ends
// the claims, and once the pool has returned, every member before it
// delivered, the rest of the stream decodes on the pipelined tier from
// that member on: valid concatenations (bgzip output followed by plain
// gzip) still decode, just without member parallelism for the tail.
func (r *Reader) decodeMembers(br *bufio.Reader, workers int) {
	var offset int64
	index, ended, tail := 0, false, int64(-1)
	err := pool.Drain(func() (member, error) {
		if ended {
			return member{}, io.EOF
		}
		m := member{index: index, offset: offset}
		bsize, err := peekMemberBSize(br)
		switch {
		case err == io.EOF:
			return m, io.EOF
		case err == errNotGzip:
			m.err = fmt.Errorf("trailing garbage after gzip member %d: %w", index, err)
		case err != nil:
			m.err = err
		case bsize < 0:
			tail = offset
			return m, io.EOF
		default:
			m.comp, m.err = readMember(br, bsize, index)
		}
		if m.err != nil {
			ended = true
			return m, nil
		}
		r.comp.Add(int64(bsize))
		index++
		offset += int64(bsize)
		return m, nil
	}, workers, r.inflate, func(c *chunk) error {
		if !r.sendChunk(c) {
			return errClosed
		}
		return c.err
	})
	if err == nil && tail >= 0 {
		r.streamProduce(br, tail)
	}
}

// readMember reads the size bytes of member index into a pooled buffer.
func readMember(br *bufio.Reader, size, index int) (*bytes.Buffer, error) {
	comp := compPool.Get().(*bytes.Buffer)
	comp.Reset()
	if _, err := io.CopyN(comp, br, int64(size)); err != nil {
		compPool.Put(comp)
		return nil, fmt.Errorf("gzip member %d truncated mid-member (want %d bytes): %w", index, size, unexpectedEOF(err))
	}
	return comp, nil
}

// inflate decodes one claimed member into a pooled buffer; a member
// that fails to read or to inflate becomes a chunk carrying the error,
// with the member's compressed offset.
func (r *Reader) inflate(m member) (*chunk, error) {
	if m.err != nil {
		return r.errChunk(m.offset, m.err), nil
	}
	sp := r.trace.StartSpan("gunzip")
	zr := inflaters.Get()
	out := decPool.Get().(*bytes.Buffer)
	out.Reset()
	err := inflateMember(zr, m.comp.Bytes(), out)
	inflaters.Put(zr)
	sp.End()
	compPool.Put(m.comp)
	if err != nil {
		decPool.Put(out)
		return r.errChunk(m.offset, fmt.Errorf("gzip member %d: %w", m.index, err)), nil
	}
	r.members.Add(1)
	return &chunk{data: out.Bytes(), recycle: func() { decPool.Put(out) }}, nil
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
