package shard

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sage/internal/fastq"
	"sage/internal/genome"
	"sage/internal/simulate"
)

// readAtCounter wraps a bytes.Reader and counts ReadAt calls and bytes,
// to prove Open touches only the header and the requested blocks.
type readAtCounter struct {
	r     *bytes.Reader
	calls int
	bytes int64
}

func (c *readAtCounter) ReadAt(p []byte, off int64) (int, error) {
	c.calls++
	c.bytes += int64(len(p))
	return c.r.ReadAt(p, off)
}

// onceReaderAt serves data and fails any ReadAt that covers a byte an
// earlier ReadAt read.
type onceReaderAt struct {
	data []byte
	seen []bool
}

func (r *onceReaderAt) ReadAt(p []byte, off int64) (int, error) {
	for i := off; i < min(off+int64(len(p)), int64(len(r.data))); i++ {
		if r.seen[i] {
			return 0, fmt.Errorf("byte %d read twice", i)
		}
		r.seen[i] = true
	}
	return bytes.NewReader(r.data).ReadAt(p, off)
}

func TestOpenMatchesParse(t *testing.T) {
	rs, ref := testSet(t, 200)
	opt := DefaultOptions(ref)
	opt.ShardReads = 50
	data, st, err := Compress(rs, opt)
	if err != nil {
		t.Fatal(err)
	}

	parsed, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	src := &readAtCounter{r: bytes.NewReader(data)}
	opened, err := Open(src, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if src.bytes > int64(2*st.HeaderBytes)+openChunk {
		t.Fatalf("Open read %d bytes for a %d-byte header", src.bytes, st.HeaderBytes)
	}
	if opened.NumShards() != parsed.NumShards() ||
		opened.Index.TotalReads != parsed.Index.TotalReads ||
		!bytes.Equal([]byte(opened.Consensus.String()), []byte(parsed.Consensus.String())) {
		t.Fatal("Open and Parse disagree on header/index")
	}

	// Every shard decodes identically through both paths, and a lazy
	// block read costs exactly one ReadAt of the block's length.
	for i := 0; i < parsed.NumShards(); i++ {
		pb, err := parsed.Block(i)
		if err != nil {
			t.Fatal(err)
		}
		before := src.calls
		ob, err := opened.Block(i)
		if err != nil {
			t.Fatal(err)
		}
		if src.calls != before+1 {
			t.Fatalf("shard %d: lazy Block made %d reads, want 1", i, src.calls-before)
		}
		if !bytes.Equal(pb, ob) {
			t.Fatalf("shard %d: lazy block differs from in-memory block", i)
		}
		prs, err := parsed.DecompressShard(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		ors, err := opened.DecompressShard(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(prs.Bytes(), ors.Bytes()) {
			t.Fatalf("shard %d: lazy decode differs from in-memory decode", i)
		}
	}
}

// TestOpenLargeHeader forces the header past Open's initial prefix chunk
// (via a consensus much larger than openChunk) to exercise the growing
// path, which reads no byte twice.
func TestOpenLargeHeader(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// 2-bit packing: a 600k-base consensus is ~150 KB of header, >2x the
	// 64 KB initial chunk.
	ref := genome.Random(rng, 600_000)
	donor, _ := genome.Donor(rng, ref, genome.HumanLikeProfile())
	rs, err := simulate.New(rng, donor).ShortReads(120, simulate.DefaultShortProfile())
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions(ref)
	opt.ShardReads = 40
	data, st, err := Compress(rs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st.HeaderBytes <= openChunk {
		t.Fatalf("test needs a header larger than %d bytes, got %d", openChunk, st.HeaderBytes)
	}
	src := &onceReaderAt{data: data, seen: make([]bool, len(data))}
	c, err := Open(src, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	clear(src.seen) // the prefix may have reached into the blocks
	got, err := c.DecompressShard(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := &fastq.ReadSet{Records: rs.Records[:40]}
	if !fastq.Equivalent(want, got) {
		t.Fatal("shard 0 did not decode to its source batch")
	}
}

func TestOpenErrors(t *testing.T) {
	rs, ref := testSet(t, 100)
	opt := DefaultOptions(ref)
	opt.ShardReads = 25
	data, st, err := Compress(rs, opt)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("out of range", func(t *testing.T) {
		c, err := Open(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range []int{-1, c.NumShards(), c.NumShards() + 7} {
			if _, err := c.Block(i); err == nil || !strings.Contains(err.Error(), "out of range") {
				t.Fatalf("Block(%d): got %v, want out-of-range error", i, err)
			}
		}
	})
	t.Run("corrupt block", func(t *testing.T) {
		corrupt := append([]byte(nil), data...)
		corrupt[len(corrupt)-st.BlockBytes/2] ^= 0xFF
		c, err := Open(bytes.NewReader(corrupt), int64(len(corrupt)))
		if err != nil {
			t.Fatal(err) // header is intact; the damage is in a block
		}
		var checksumErrs int
		for i := 0; i < c.NumShards(); i++ {
			if _, err := c.Block(i); err != nil {
				if !strings.Contains(err.Error(), "checksum") {
					t.Fatalf("shard %d: got %v, want checksum error", i, err)
				}
				checksumErrs++
			}
		}
		if checksumErrs != 1 {
			t.Fatalf("got %d checksum errors, want exactly 1", checksumErrs)
		}
	})
	t.Run("truncated file", func(t *testing.T) {
		for _, n := range []int{0, 3, st.HeaderBytes / 2, st.HeaderBytes, len(data) - 3} {
			if _, err := Open(bytes.NewReader(data[:n]), int64(n)); err == nil {
				t.Fatalf("Open of %d-byte truncation succeeded", n)
			}
		}
	})
	t.Run("flipped header bytes", func(t *testing.T) {
		// Every mutation must be rejected by Open (header CRC) or, if it
		// somehow parses, surface as a per-shard error — never a panic.
		for i := 0; i < st.HeaderBytes; i += 3 {
			corrupt := append([]byte(nil), data...)
			corrupt[i] ^= 0x5A
			c, err := Open(bytes.NewReader(corrupt), int64(len(corrupt)))
			if err != nil {
				continue
			}
			for s := 0; s < c.NumShards(); s++ {
				if _, err := c.DecompressShard(s, nil); err == nil {
					continue // mutation was benign for this shard
				}
			}
		}
	})
}
