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
	"runtime"
	"sync"
)

// blockSize and level are pigz's defaults: `pigz -6`, 128 KiB blocks.
const (
	blockSize = 128 << 10
	level     = 6
)

var blockMagic = [4]byte{'P', 'G', 'Z', '1'}

// Compress encodes data as a sequence of independently-deflated blocks,
// compressed on up to GOMAXPROCS workers.
func Compress(data []byte) []byte {
	nBlocks := (len(data) + blockSize - 1) / blockSize
	comp := make([][]byte, nBlocks)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for b := 0; b < nBlocks; b++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(b int) {
			defer wg.Done()
			defer func() { <-sem }()
			lo := b * blockSize
			hi := min(lo+blockSize, len(data))
			var buf bytes.Buffer
			// Neither call fails: the level is valid and a
			// bytes.Buffer never refuses a write.
			zw, _ := gzip.NewWriterLevel(&buf, level)
			zw.Write(data[lo:hi])
			zw.Close()
			comp[b] = buf.Bytes()
		}(b)
	}
	wg.Wait()
	var out bytes.Buffer
	out.Write(blockMagic[:])
	writeUvarint(&out, uint64(len(data)))
	writeUvarint(&out, uint64(nBlocks))
	for b := 0; b < nBlocks; b++ {
		writeUvarint(&out, uint64(len(comp[b])))
		out.Write(comp[b])
	}
	return out.Bytes()
}

// Decompress decodes a block stream, inflating blocks on up to
// GOMAXPROCS workers.
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
	blocks := make([][]byte, nBlocks)
	for b := range blocks {
		l, err := binary.ReadUvarint(rd)
		if err != nil {
			return nil, err
		}
		if uint64(rd.Len()) < l {
			return nil, fmt.Errorf("gzipc: block %d truncated", b)
		}
		blk := make([]byte, l)
		if _, err := io.ReadFull(rd, blk); err != nil {
			return nil, err
		}
		blocks[b] = blk
	}
	out := make([][]byte, nBlocks)
	errs := make([]error, nBlocks)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for b := range blocks {
		wg.Add(1)
		sem <- struct{}{}
		go func(b int) {
			defer wg.Done()
			defer func() { <-sem }()
			zr, err := gzip.NewReader(bytes.NewReader(blocks[b]))
			if err != nil {
				errs[b] = err
				return
			}
			raw, err := io.ReadAll(zr)
			if err != nil {
				errs[b] = err
				return
			}
			out[b] = raw
		}(b)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var buf bytes.Buffer
	buf.Grow(int(total))
	for _, blk := range out {
		buf.Write(blk)
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
