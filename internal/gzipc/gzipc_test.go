package gzipc

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestRoundtripEmpty(t *testing.T) {
	d, err := Decompress(Compress(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 0 {
		t.Fatalf("got %d bytes", len(d))
	}
}

func TestRoundtripMultiBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 700000) // ~6 blocks at default size
	for i := range data {
		data[i] = "ACGT"[rng.Intn(4)]
	}
	c := Compress(data)
	if len(c) >= len(data) {
		t.Fatalf("no compression: %d vs %d", len(c), len(data))
	}
	d, err := Decompress(c)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d, data) {
		t.Fatal("roundtrip mismatch")
	}
}

// TestSmallBlocks: an input shorter than one block is one member.
func TestSmallBlocks(t *testing.T) {
	data := []byte("the quick brown fox jumps over the lazy dog")
	c := Compress(data)
	if _, members := header(t, c); len(members) != 1 {
		t.Fatalf("%d members, want 1", len(members))
	}
	d, err := Decompress(c)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d, data) {
		t.Fatal("roundtrip mismatch")
	}
}

// header splits a block stream into its total length and its members.
func header(t *testing.T, c []byte) (total uint64, members [][]byte) {
	t.Helper()
	rd := bytes.NewReader(c[len(blockMagic):])
	total, err := binary.ReadUvarint(rd)
	if err != nil {
		t.Fatal(err)
	}
	n, err := binary.ReadUvarint(rd)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		l, err := binary.ReadUvarint(rd)
		if err != nil {
			t.Fatal(err)
		}
		m := make([]byte, l)
		if _, err := io.ReadFull(rd, m); err != nil {
			t.Fatal(err)
		}
		members = append(members, m)
	}
	return total, members
}

func TestDecompressErrors(t *testing.T) {
	if _, err := Decompress([]byte("xx")); err == nil {
		t.Fatal("expected error for short input")
	}
	if _, err := Decompress([]byte("XXXX\x00\x00")); err == nil {
		t.Fatal("expected error for bad magic")
	}
	c := Compress([]byte("hello world hello world"))
	if _, err := Decompress(c[:len(c)-2]); err == nil {
		t.Fatal("expected error for truncated stream")
	}
	// A 10-byte stream claiming 256 MiB fails before a buffer is sized.
	lie := binary.AppendUvarint(append(blockMagic[:], binary.AppendUvarint(nil, 1<<28)...), 0)
	if _, err := Decompress(lie); err == nil || !strings.Contains(err.Error(), "implausible total") {
		t.Fatalf("err = %v, want an implausible total", err)
	}
}

func TestQuickRoundtrip(t *testing.T) {
	f := func(data []byte) bool {
		d, err := Decompress(Compress(data))
		return err == nil && bytes.Equal(d, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestLevelHandling pins the blocks to pigz's defaults: 128 KiB of
// input each, deflated at level 6, so every member is the one
// gzip.NewWriterLevel(w, 6) writes for its block.
func TestLevelHandling(t *testing.T) {
	data := bytes.Repeat([]byte("ACGTACGTACGTNNGATTACA"), 16<<10)
	total, members := header(t, Compress(data))
	if total != uint64(len(data)) {
		t.Fatalf("total %d, want %d", total, len(data))
	}
	if want := (len(data) + blockSize - 1) / blockSize; len(members) != want {
		t.Fatalf("%d members, want %d", len(members), want)
	}
	for i, m := range members {
		lo := i * blockSize
		var buf bytes.Buffer
		zw, err := gzip.NewWriterLevel(&buf, 6)
		if err != nil {
			t.Fatal(err)
		}
		zw.Write(data[lo:min(lo+blockSize, len(data))])
		zw.Close()
		if !bytes.Equal(m, buf.Bytes()) {
			t.Fatalf("member %d is not the level-6 deflate of its block", i)
		}
	}
}

// TestWorkerLimit: with one worker allowed, the pool still drains a
// multi-block input in both directions.
func TestWorkerLimit(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	data := bytes.Repeat([]byte("genome"), 100000)
	d, err := Decompress(Compress(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d, data) {
		t.Fatal("roundtrip mismatch with single worker")
	}
}

// TestDecompressFirstBadBlockWins: with a slow failure (a bad CRC,
// found after the whole block inflates) in block 1 and a fast one (a bad
// header) in block 4, Decompress reports block 1's, however the workers
// interleave.
func TestDecompressFirstBadBlockWins(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(3))
	data := make([]byte, 6*blockSize)
	for i := range data {
		data[i] = "ACGT"[rng.Intn(4)]
	}
	c := Compress(data)
	_, members := header(t, c)
	at := func(b int) int { return bytes.Index(c, members[b]) }
	c[at(1)+len(members[1])-8] ^= 0xff // block 1's CRC
	c[at(4)] ^= 0xff                   // block 4's gzip magic
	for range 20 {
		if _, err := Decompress(c); !errors.Is(err, gzip.ErrChecksum) {
			t.Fatalf("err = %v, want block 1's %v", err, gzip.ErrChecksum)
		}
	}
}
