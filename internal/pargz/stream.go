package pargz

// This file is the pipelined tier: generic single-member gzip cannot
// be split for parallel decode, but a dedicated goroutine inflating
// into a bounded ring of reused buffers overlaps decompression with
// the downstream parse→map→encode stages. It also serves as the
// fallback tail when a BGZF scan meets a member without boundary
// metadata mid-stream.

import (
	"bufio"
	"compress/gzip"
	"io"
)

// countReader counts bytes consumed from r; pargz uses it to keep
// compressed offsets for error context and throughput stats. ReadByte
// keeps binary.ReadUvarint from wrapping it in another buffer.
type countReader struct {
	r *bufio.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.n++
	}
	return b, err
}

// startStream launches the pipelined tier for generic gzip. The header
// is validated here, synchronously, so a damaged first header fails at
// construction; decode then runs on its own goroutine.
func (r *Reader) startStream(br *bufio.Reader) error {
	cr := &countReader{r: br}
	zr, err := gzip.NewReader(cr)
	if err != nil {
		return r.ctxErr(0, err)
	}
	go func() {
		defer close(r.done)
		defer close(r.chunks)
		r.streamDecode(zr, cr)
	}()
	return nil
}

// streamProduce is the member tier's fallback: decode the rest of a
// stream serially from its current position (baseOffset compressed
// bytes already consumed). It runs inline on the member tier's
// goroutine once its pool has returned, and returns when the stream
// ends, errors, or the reader closes; the caller owns closing r.chunks.
func (r *Reader) streamProduce(br *bufio.Reader, baseOffset int64) {
	cr := &countReader{r: br, n: baseOffset}
	zr, err := gzip.NewReader(cr)
	if err != nil {
		r.sendChunk(r.errChunk(baseOffset, err))
		return
	}
	r.streamDecode(zr, cr)
}

// streamDecode fills ring buffers from zr and threads them to the
// consumer in order. Buffers recycle through free when the consumer
// finishes each chunk, bounding memory at readahead × streamBufSize.
func (r *Reader) streamDecode(zr *gzip.Reader, cr *countReader) {
	free := make(chan []byte, readahead)
	for i := 0; i < readahead; i++ {
		free <- make([]byte, streamBufSize)
	}
	var compSeen int64
	for {
		var buf []byte
		select {
		case buf = <-free:
		case <-r.stop:
			return
		}
		sp := r.trace.StartSpan("gunzip")
		n, err := readFull(zr, buf)
		sp.End()
		if c := cr.n; c > compSeen {
			r.comp.Add(c - compSeen)
			compSeen = c
		}
		if n > 0 {
			b := buf
			if !r.sendChunk(&chunk{data: buf[:n], recycle: func() { free <- b }}) {
				return
			}
		}
		if err == io.EOF {
			r.members.Add(1) // at least one member ended cleanly
			return
		}
		if err != nil {
			r.sendChunk(r.errChunk(cr.n, unexpectedEOF(err)))
			return
		}
	}
}

// readFull reads until buf is full, EOF, or an error. Unlike
// io.ReadFull it treats a clean EOF after partial data as (n, io.EOF),
// which is exactly what the chunk loop wants.
func readFull(zr io.Reader, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		m, err := zr.Read(buf[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}
