package shard

import (
	"bytes"
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"sage/internal/freelist"
)

// TestDecompressToMatchesDecompress pins the streaming decode against
// the in-memory one: identical bytes, any worker count, for both
// in-memory (Parse) and lazily opened (Open) containers.
func TestDecompressToMatchesDecompress(t *testing.T) {
	rs, ref := testSet(t, 300)
	opt := DefaultOptions(ref)
	opt.ShardReads = 32 // 10 shards
	data, _, err := Compress(rs, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Decompress(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := want.Bytes()

	for _, workers := range []int{1, 2, 8} {
		c, err := Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := c.DecompressTo(&buf, nil, workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(buf.Bytes(), wantBytes) {
			t.Fatalf("workers=%d: streamed bytes differ from Decompress", workers)
		}
	}

	// The lazy-open path (what `sage decompress` streams through).
	c, err := Open(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.DecompressTo(&buf, nil, 4); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), wantBytes) {
		t.Fatal("lazily opened streamed bytes differ from Decompress")
	}
}

func TestDecompressToEmptyContainer(t *testing.T) {
	rs, ref := testSet(t, 0)
	data, _, err := Compress(rs, DefaultOptions(ref))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.DecompressTo(&buf, nil, 4); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("empty container streamed %d bytes", buf.Len())
	}
}

// TestDecompressToWorkersExceedShards hands the pool far more workers
// than shards: the surplus must idle harmlessly (no deadlock on the
// admission window, no dropped or duplicated shards).
func TestDecompressToWorkersExceedShards(t *testing.T) {
	rs, ref := testSet(t, 90)
	opt := DefaultOptions(ref)
	opt.ShardReads = 30 // 3 shards
	data, _, err := Compress(rs, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Decompress(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumShards() != 3 {
		t.Fatalf("fixture has %d shards, want 3", c.NumShards())
	}
	var buf bytes.Buffer
	if err := c.DecompressTo(&buf, nil, 16); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want.Bytes()) {
		t.Fatal("16 workers over 3 shards: streamed bytes differ from Decompress")
	}
}

// TestDecompressToOneReadShards streams a container degenerately cut
// into one read per shard — the worst ratio of shard machinery (index
// entries, per-shard consensus mapping, write-order tokens) to payload.
func TestDecompressToOneReadShards(t *testing.T) {
	rs, ref := testSet(t, 24)
	opt := DefaultOptions(ref)
	opt.ShardReads = 1
	data, _, err := Compress(rs, opt)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumShards() != 24 {
		t.Fatalf("got %d shards, want one per read (24)", c.NumShards())
	}
	want, err := Decompress(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 32} {
		var buf bytes.Buffer
		if err := c.DecompressTo(&buf, nil, workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(buf.Bytes(), want.Bytes()) {
			t.Fatalf("workers=%d: one-read shards streamed wrong bytes", workers)
		}
	}
}

// blockingWriter parks on its first Write until released, then passes
// everything through.
type blockingWriter struct {
	w        io.Writer
	release  chan struct{}
	once     atomic.Bool
	firstHit chan struct{}
}

func (bw *blockingWriter) Write(p []byte) (int, error) {
	if bw.once.CompareAndSwap(false, true) {
		close(bw.firstHit)
		<-bw.release
	}
	return bw.w.Write(p)
}

// TestDecompressToBoundedWindow is the memory-bound demonstration the
// ISSUE asks for: with the writer wedged on shard 0, the decode pool
// must stall after admitting at most workers+1 shards — it can never
// run ahead and materialize the whole container the way the old
// ReadFile+Decompress path in `sage decompress` did.
func TestDecompressToBoundedWindow(t *testing.T) {
	rs, ref := testSet(t, 360)
	opt := DefaultOptions(ref)
	opt.ShardReads = 30 // 12 shards
	data, _, err := Compress(rs, opt)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}

	want, err := Decompress(data, 1)
	if err != nil {
		t.Fatal(err)
	}

	// workers=1 is the tightest window; workers=2 is the original
	// regression case. Peak resident decoded shards is the window size,
	// workers+1, regardless of worker count.
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var started atomic.Int32
			testDecodeStarted = func(int) { started.Add(1) }
			defer func() { testDecodeStarted = nil }()

			var out bytes.Buffer
			bw := &blockingWriter{w: &out, release: make(chan struct{}), firstHit: make(chan struct{})}
			done := make(chan error, 1)
			go func() { done <- c.DecompressTo(bw, nil, workers) }()

			// Writer is now wedged mid-shard-0. Give the workers every
			// chance to race ahead; the admission window must hold them to
			// workers+1 decodes no matter how long we wait.
			<-bw.firstHit
			time.Sleep(200 * time.Millisecond)
			if n := started.Load(); n > int32(workers)+1 {
				t.Errorf("decoder ran %d shards ahead of a wedged writer, window is %d", n, workers+1)
			}
			close(bw.release)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if n := started.Load(); n != int32(c.NumShards()) {
				t.Fatalf("decoded %d shards, want %d", n, c.NumShards())
			}
			if !bytes.Equal(out.Bytes(), want.Bytes()) {
				t.Fatal("streamed bytes differ from Decompress after unwedging")
			}
		})
	}
}

// failingWriter rejects every write, like a full disk.
type failingWriter struct{}

func (failingWriter) Write(p []byte) (int, error) {
	return 0, fmt.Errorf("disk full")
}

// TestDecompressToWriteError checks a failing writer surfaces its error
// and the pipeline shuts down instead of deadlocking.
func TestDecompressToWriteError(t *testing.T) {
	rs, ref := testSet(t, 200)
	opt := DefaultOptions(ref)
	opt.ShardReads = 25 // 8 shards
	data, _, err := Compress(rs, opt)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	err = c.DecompressTo(failingWriter{}, nil, 4)
	if err == nil || err.Error() != "disk full" {
		t.Fatalf("err = %v, want the writer's error", err)
	}
}

// TestDecompressToCorruptShard checks a damaged shard fails the stream
// cleanly (no deadlock, checksum error surfaced).
func TestDecompressToCorruptShard(t *testing.T) {
	rs, ref := testSet(t, 200)
	opt := DefaultOptions(ref)
	opt.ShardReads = 25
	data, _, err := Compress(rs, opt)
	if err != nil {
		t.Fatal(err)
	}
	c0, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), data...)
	hdr := int64(len(data)) - c0.Index.BlockBytes()
	e := c0.Index.Entries[5]
	corrupt[hdr+e.Offset+e.Length/2] ^= 0xFF
	c, err := Parse(corrupt)
	if err != nil {
		t.Fatal(err)
	}
	err = c.DecompressTo(io.Discard, nil, 4)
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("checksum")) {
		t.Fatalf("err = %v, want a checksum error", err)
	}
}

// TestDecodeBuffersBounded: DecompressTo over a shard whose text
// outgrows freelist.MaxKeep drops that text buffer instead of keeping
// it for the life of the process, and keeps no block buffer past it
// either.
func TestDecodeBuffersBounded(t *testing.T) {
	rs, ref := testSet(t, 14_000)
	opt := DefaultOptions(ref)
	opt.ShardReads = len(rs.Records)
	data, _, err := Compress(rs, opt)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	var out countWriter
	if err := c.DecompressTo(&out, nil, 1); err != nil {
		t.Fatal(err)
	}
	if out <= freelist.MaxKeep {
		t.Fatalf("the shard renders to %d bytes, not past MaxKeep", out)
	}
	for _, l := range []freelist.List[[]byte]{texts, blocks} {
		for len(l) > 0 {
			if b := <-l; cap(*b) > freelist.MaxKeep {
				t.Fatalf("a %d-byte buffer was kept", cap(*b))
			}
		}
	}
}

// countWriter counts the bytes written to it.
type countWriter int

func (w *countWriter) Write(p []byte) (int, error) {
	*w += countWriter(len(p))
	return len(p), nil
}
