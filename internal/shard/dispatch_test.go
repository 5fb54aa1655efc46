package shard

import (
	"bytes"
	"testing"
)

// dispatchContainer builds a small multi-shard container and returns
// its bytes.
func dispatchContainer(t *testing.T) []byte {
	t.Helper()
	rs, ref := testSet(t, 250)
	opt := DefaultOptions(ref)
	opt.ShardReads = 64 // 4 shards
	data, _, err := Compress(rs, opt)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestDispatchTableHandles(t *testing.T) {
	data := dispatchContainer(t)
	parsed, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	opened, err := Open(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*Container{"parsed": parsed, "opened": opened} {
		var next int64
		for i, e := range c.Index.Entries {
			off, length, err := c.Extent(i)
			if err != nil {
				t.Fatalf("%s: Extent(%d): %v", name, i, err)
			}
			if length != e.Length {
				t.Fatalf("%s: shard %d extent length %d, want %d", name, i, length, e.Length)
			}
			// The offset points at the block inside the whole file.
			if !bytes.Equal(data[off:off+length], mustBlock(t, c, i)) {
				t.Fatalf("%s: shard %d extent does not locate the block", name, i)
			}
			// Extents tile the block section: none leaks into a neighbor.
			if i > 0 && off != next {
				t.Fatalf("%s: shard %d starts at %d, previous extent ended at %d", name, i, off, next)
			}
			next = off + length
		}
		if next != int64(len(data)) {
			t.Fatalf("%s: extents end at %d, container is %d bytes", name, next, len(data))
		}
	}
}

func mustBlock(t *testing.T, c *Container, i int) []byte {
	t.Helper()
	b, err := c.Block(i)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestDispatchHandleBounds(t *testing.T) {
	c, err := Parse(dispatchContainer(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{-1, c.NumShards()} {
		if _, _, err := c.Extent(i); err == nil {
			t.Fatalf("Extent(%d) must error", i)
		}
		if _, err := c.Block(i); err == nil {
			t.Fatalf("Block(%d) must error", i)
		}
		if _, err := c.AppendBlockFASTQ(nil, i, nil); err == nil {
			t.Fatalf("AppendBlockFASTQ(%d) must error", i)
		}
	}
	// AppendBlockFASTQ verifies foreign bytes against the index before
	// decoding: a neighbor's block is rejected, the right one renders
	// what the container's own fetch renders.
	if _, err := c.AppendBlockFASTQ(nil, 0, mustBlock(t, c, 1)); err == nil {
		t.Fatal("AppendBlockFASTQ must reject bytes that fail shard 0's checksum")
	}
	got, err := c.AppendBlockFASTQ(nil, 0, mustBlock(t, c, 0))
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.AppendFASTQ(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || !bytes.Equal(got, want) {
		t.Fatalf("AppendBlockFASTQ rendered %d bytes, AppendFASTQ %d", len(got), len(want))
	}
}
