// Package gzipc is the pigz baseline: block-parallel DEFLATE over raw
// FASTQ bytes (§7: "pigz: a parallel version of gzip, a commonly-used
// general compressor").
//
// Like pigz, it splits the input into fixed-size blocks, compresses them
// on independent workers, and concatenates the members, so both directions
// scale with cores. As a general-purpose compressor it cannot exploit the
// long-range genomic redundancy that consensus-based compressors use,
// which is why its ratios trail genomic-specific tools by ~3x (§2.2).
package gzipc

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"

	"sage/internal/pool"
)

// blockSize and level are pigz's defaults: `pigz -6`, 128 KiB blocks.
const (
	blockSize = 128 << 10
	level     = 6
)

var blockMagic = [4]byte{'P', 'G', 'Z', '1'}

// Compress encodes data as a sequence of independently-deflated blocks,
// compressed on up to GOMAXPROCS workers of pool.Each; each block's
// length and bytes are written as it comes back, in block order.
func Compress(data []byte) []byte {
	nBlocks := (len(data) + blockSize - 1) / blockSize
	var out bytes.Buffer
	out.Write(blockMagic[:])
	writeUvarint(&out, uint64(len(data)))
	writeUvarint(&out, uint64(nBlocks))
	// Nothing here fails: the level is valid and a bytes.Buffer never
	// refuses a write.
	pool.Each(nBlocks, 0, func(b int) ([]byte, error) {
		lo := b * blockSize
		var buf bytes.Buffer
		zw, _ := gzip.NewWriterLevel(&buf, level)
		zw.Write(data[lo:min(lo+blockSize, len(data))])
		zw.Close()
		return buf.Bytes(), nil
	}, func(comp []byte) error {
		writeUvarint(&out, uint64(len(comp)))
		out.Write(comp)
		return nil
	})
	return out.Bytes()
}

// Decompress decodes a block stream, inflating blocks on up to
// GOMAXPROCS workers of pool.Each. The block framing is read first, so
// a damaged frame fails before any block inflates; otherwise the first
// block in stream order that fails to inflate names the error.
func Decompress(data []byte) ([]byte, error) {
	rd := bytes.NewReader(data)
	var m [4]byte
	if _, err := io.ReadFull(rd, m[:]); err != nil {
		return nil, fmt.Errorf("gzipc: reading magic: %w", err)
	}
	if m != blockMagic {
		return nil, fmt.Errorf("gzipc: bad magic %q", m)
	}
	total, err := binary.ReadUvarint(rd)
	if err != nil {
		return nil, err
	}
	nBlocks, err := binary.ReadUvarint(rd)
	if err != nil {
		return nil, err
	}
	if nBlocks > uint64(len(data)) {
		return nil, fmt.Errorf("gzipc: implausible block count %d", nBlocks)
	}
	// DEFLATE expands at most 1032-fold, so a larger total is a lie the
	// output buffer must not be sized by.
	if total > 1032*uint64(len(data)) {
		return nil, fmt.Errorf("gzipc: implausible total %d for %d bytes", total, len(data))
	}
	blocks := make([][]byte, nBlocks)
	for b := range blocks {
		l, err := binary.ReadUvarint(rd)
		if err != nil {
			return nil, err
		}
		if uint64(rd.Len()) < l {
			return nil, fmt.Errorf("gzipc: block %d truncated", b)
		}
		at := len(data) - rd.Len()
		blocks[b] = data[at : at+int(l)]
		rd.Seek(int64(l), io.SeekCurrent)
	}
	var buf bytes.Buffer
	buf.Grow(int(total))
	// An inflate error travels as a value to emit, which runs in block
	// order, so the error returned is the first block's whatever the
	// workers' timing.
	type inflated struct {
		raw []byte
		err error
	}
	err = pool.Each(len(blocks), 0, func(b int) (inflated, error) {
		zr, err := gzip.NewReader(bytes.NewReader(blocks[b]))
		if err != nil {
			return inflated{err: err}, nil
		}
		raw, err := io.ReadAll(zr)
		return inflated{raw, err}, nil
	}, func(r inflated) error {
		buf.Write(r.raw)
		return r.err
	})
	if err != nil {
		return nil, err
	}
	if uint64(buf.Len()) != total {
		return nil, fmt.Errorf("gzipc: decompressed %d bytes, want %d", buf.Len(), total)
	}
	return buf.Bytes(), nil
}

func writeUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	buf.Write(tmp[:n])
}
