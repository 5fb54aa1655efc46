package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sage/internal/core"
	"sage/internal/fastq"
	"sage/internal/genome"
	"sage/internal/reorder"
	"sage/internal/simulate"
)

// testSet simulates a deterministic read set and its reference.
func testSet(t testing.TB, nReads int) (*fastq.ReadSet, genome.Seq) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	ref := genome.Random(rng, 20_000)
	donor, _ := genome.Donor(rng, ref, genome.HumanLikeProfile())
	rs, err := simulate.New(rng, donor).ShortReads(nReads, simulate.DefaultShortProfile())
	if err != nil {
		t.Fatal(err)
	}
	return rs, ref
}

// Decompress parses a sharded container and decodes it whole to
// records: DecompressShard over every shard on the stream pool (up to
// workers goroutines, <= 0 uses GOMAXPROCS), records in shard order. It
// is the record-path oracle the text readers (DecompressTo,
// DecompressOriginalTo, Filter) are held to.
func Decompress(data []byte, workers int) (*fastq.ReadSet, error) {
	c, err := Parse(data)
	if err != nil {
		return nil, err
	}
	out := &fastq.ReadSet{Records: make([]fastq.Record, 0, c.Index.TotalReads)}
	err = stream(c.allShards(), workers, func(i int) (*fastq.ReadSet, error) {
		return c.DecompressShard(i, nil)
	}, func(rs *fastq.ReadSet) error {
		out.Records = append(out.Records, rs.Records...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// TestRoundtripWorkers checks that compression and decompression are
// lossless and byte-deterministic across worker counts. Run under
// `go test -race` this also exercises the worker pools for data races.
func TestRoundtripWorkers(t *testing.T) {
	rs, ref := testSet(t, 300)
	opt := DefaultOptions(ref)
	opt.ShardReads = 64 // 5 shards

	var reference []byte
	for _, workers := range []int{1, 2, 8} {
		opt.Workers = workers
		data, st, err := Compress(rs, opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if st.Shards != 5 || st.Reads != 300 {
			t.Fatalf("workers=%d: got %d shards / %d reads, want 5 / 300", workers, st.Shards, st.Reads)
		}
		if reference == nil {
			reference = data
		} else if !bytes.Equal(data, reference) {
			t.Fatalf("workers=%d: container bytes differ from workers=1", workers)
		}
		for _, dw := range []int{1, 2, 8} {
			got, err := Decompress(data, dw)
			if err != nil {
				t.Fatalf("decompress workers=%d: %v", dw, err)
			}
			if !fastq.Equivalent(rs, got) {
				t.Fatalf("decompress workers=%d: read set not equivalent", dw)
			}
		}
	}

	// Decoded FASTQ bytes are identical regardless of worker count.
	a, err := Decompress(reference, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Decompress(reference, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("decoded FASTQ differs between 1 and 8 workers")
	}
}

func TestEmptyInput(t *testing.T) {
	_, ref := testSet(t, 1)
	data, st, err := Compress(&fastq.ReadSet{}, DefaultOptions(ref))
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 0 || st.Reads != 0 {
		t.Fatalf("empty input: got %d shards / %d reads", st.Shards, st.Reads)
	}
	got, err := Decompress(data, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 0 {
		t.Fatalf("empty input decoded to %d records", len(got.Records))
	}
}

func TestShardLargerThanReadCount(t *testing.T) {
	rs, ref := testSet(t, 10)
	opt := DefaultOptions(ref)
	opt.ShardReads = 1000
	opt.Workers = 8
	data, st, err := Compress(rs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 1 {
		t.Fatalf("got %d shards, want 1", st.Shards)
	}
	got, err := Decompress(data, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !fastq.Equivalent(rs, got) {
		t.Fatal("roundtrip failed")
	}
}

func TestCompressStreamMatchesInMemory(t *testing.T) {
	rs, ref := testSet(t, 250)
	opt := DefaultOptions(ref)
	opt.ShardReads = 64
	opt.Workers = 4

	want, _, err := Compress(rs, opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	br := fastq.NewBatchReader(bytes.NewReader(rs.Bytes()), opt.ShardReads)
	st, err := CompressPipeline(br, &buf, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("streamed container (%d B) differs from in-memory container (%d B)", buf.Len(), len(want))
	}
	if st.Reads != 250 {
		t.Fatalf("stream stats: %d reads, want 250", st.Reads)
	}
}

func TestCompressStreamBadInput(t *testing.T) {
	_, ref := testSet(t, 1)
	br := fastq.NewBatchReader(strings.NewReader("@r1\nACGT\nnot a separator\n!!!!\n"), 4)
	var buf bytes.Buffer
	if _, err := CompressPipeline(br, &buf, DefaultOptions(ref)); err == nil {
		t.Fatal("malformed FASTQ stream did not error")
	}
}

// TestExternalConsensus: a pipeline asked not to embed its consensus
// (Core.EmbedConsensus = false) embeds it all the same, and writes the
// very bytes the default options write: the setting is per block, and
// the writer sets it itself. The container decodes with no consensus
// handed in, and a wrong one handed to the readers that still take a
// cons parameter is ignored.
func TestExternalConsensus(t *testing.T) {
	rs, ref := testSet(t, 80)
	opt := DefaultOptions(ref)
	opt.ShardReads = 32
	want, _, err := Compress(rs, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Core.EmbedConsensus = false
	data, _, err := Compress(rs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Fatal("EmbedConsensus = false changed the container")
	}
	c, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Consensus.Equal(ref) {
		t.Fatalf("embedded consensus is %d bases, want the %d-base reference", len(c.Consensus), len(ref))
	}
	got, err := Decompress(data, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !fastq.Equivalent(rs, got) {
		t.Fatal("roundtrip failed")
	}
	wrong := slices.Clone(ref)
	for i := 0; i < len(wrong); i += 997 {
		wrong[i] = (wrong[i] + 1) % 4
	}
	var plain, withWrong bytes.Buffer
	if err := c.DecompressTo(&plain, nil, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.DecompressTo(&withWrong, wrong, 2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), withWrong.Bytes()) {
		t.Fatal("DecompressTo used the cons it was handed instead of the embedded consensus")
	}
}

func TestCorruptedBlockChecksum(t *testing.T) {
	rs, ref := testSet(t, 120)
	opt := DefaultOptions(ref)
	opt.ShardReads = 32
	data, st, err := Compress(rs, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the last block (well past the header and index).
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)-st.BlockBytes/2] ^= 0xFF
	_, err = Decompress(corrupt, 4)
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupted block: got %v, want checksum error", err)
	}
}

func TestCorruptedIndex(t *testing.T) {
	rs, ref := testSet(t, 120)
	opt := DefaultOptions(ref)
	opt.ShardReads = 32
	data, st, err := Compress(rs, opt)
	if err != nil {
		t.Fatal(err)
	}
	hdrLen := st.HeaderBytes

	t.Run("truncated header", func(t *testing.T) {
		for n := 0; n < hdrLen; n += 7 {
			if _, err := Parse(data[:n]); err == nil {
				t.Fatalf("truncation to %d bytes parsed", n)
			}
		}
	})
	t.Run("truncated blocks", func(t *testing.T) {
		if _, err := Parse(data[:len(data)-3]); err == nil {
			t.Fatal("truncated block section parsed")
		}
	})
	t.Run("flipped index bytes", func(t *testing.T) {
		// Mutate each header/index byte after the magic; Parse or
		// Decompress must reject (or survive) every variant without
		// panicking. Some mutations only flip checksum bits, which
		// Parse accepts and Decompress catches.
		for i := len(Magic); i < hdrLen; i++ {
			corrupt := append([]byte(nil), data...)
			corrupt[i] ^= 0x5A
			if _, err := Parse(corrupt); err != nil {
				continue
			}
			if _, err := Decompress(corrupt, 2); err == nil {
				t.Fatalf("mutating header byte %d went undetected", i)
			}
		}
	})
	t.Run("wrong magic", func(t *testing.T) {
		corrupt := append([]byte(nil), data...)
		corrupt[0] = 'X'
		if IsContainer(corrupt) {
			t.Fatal("IsContainer accepted wrong magic")
		}
		if _, err := Parse(corrupt); err == nil {
			t.Fatal("wrong magic parsed")
		}
	})
	// The two cases below carry a correct header CRC: only the rule in
	// docs/FORMAT.md stands between them and a misparse.
	resealed := func(hdr []byte) []byte {
		body := hdr[:len(hdr)-4]
		return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
	}
	t.Run("reserved flag bits", func(t *testing.T) {
		for bit := 2; bit < 8; bit++ {
			mut := append([]byte(nil), data[:hdrLen]...)
			mut[5] |= 1 << bit
			mut = append(resealed(mut), data[hdrLen:]...)
			if _, err := Parse(mut); err == nil || !strings.Contains(err.Error(), "reserved flag") {
				t.Fatalf("flag bit %d set: got %v, want a reserved-flag error", bit, err)
			}
		}
	})
	t.Run("version 5 with reorder mode none", func(t *testing.T) {
		// An identity header respelled as v5: version byte 5 and a zero
		// reorder mode after magic, version, flags and the three
		// one-byte varints of an empty index.
		hdr, err := marshalHeader(&Index{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		mut := append([]byte(nil), hdr[:9]...)
		mut[4] = reorderVersion
		mut = resealed(append(append(mut, ReorderNone), hdr[9:]...))
		if _, err := Parse(mut); err == nil || !strings.Contains(err.Error(), "reorder mode none") {
			t.Fatalf("v5 header with mode 0: got %v, want a reorder-mode error", err)
		}
	})
}

// TestMarshalEnforcesReaderRules: every rule parseHeader holds an index
// to, marshalHeader holds it to as well — a writer bug surfaces at
// write time, not as a container nothing can open.
func TestMarshalEnforcesReaderRules(t *testing.T) {
	valid := func() *Index {
		return &Index{TotalReads: 5, ShardReads: 3, SketchBytes: 2,
			Sources: []SourceFile{{Name: "a.fq", Reads: 3}, {Name: "b.fq", Reads: 2}},
			Entries: []Entry{
				{ReadCount: 3, Offset: 0, Length: 40, Source: 0,
					Zone: ZoneMap{MinLen: 8, MaxLen: 9, QualReads: 3, MinGCMilli: 100, MaxGCMilli: 900, Sketch: []byte{1, 2}}},
				{ReadCount: 2, Offset: 40, Length: 30, Source: 1,
					Zone: ZoneMap{MinLen: 8, MaxLen: 8, Sketch: []byte{3, 4}}},
			}}
	}
	if _, err := marshalHeader(valid(), nil); err != nil {
		t.Fatalf("valid index rejected: %v", err)
	}
	for name, breakIt := range map[string]func(*Index){
		"read total":        func(ix *Index) { ix.TotalReads++ },
		"negative count":    func(ix *Index) { ix.ShardReads = -1 },
		"offset gap":        func(ix *Index) { ix.Entries[1].Offset++ },
		"source order":      func(ix *Index) { ix.Entries[0].Source, ix.Entries[1].Source = 1, 0 },
		"source range":      func(ix *Index) { ix.Entries[1].Source = 2 },
		"per-source sum":    func(ix *Index) { ix.Sources[0].Reads, ix.Sources[1].Reads = 2, 3 },
		"zone count cap":    func(ix *Index) { ix.Entries[0].Zone.QualReads = 4 },
		"zone Phred cap":    func(ix *Index) { ix.Entries[0].Zone.MinPhred = 64 },
		"zone inverted":     func(ix *Index) { ix.Entries[0].Zone.MinGCMilli = 901 },
		"sketch length":     func(ix *Index) { ix.Entries[1].Zone.Sketch = []byte{3} },
		"sketch size cap":   func(ix *Index) { ix.SketchBytes = maxSketchBytes + 1 },
		"perm without mode": func(ix *Index) { ix.Perm = []int64{0, 1, 2, 3, 4} },
		"perm repeats": func(ix *Index) {
			ix.ReorderMode, ix.Perm = ReorderClump, []int64{0, 1, 2, 3, 3}
		},
	} {
		ix := valid()
		breakIt(ix)
		if _, err := marshalHeader(ix, nil); err == nil {
			t.Errorf("%s: broken index marshaled", name)
		}
	}
}

// TestSharedConsensusOverhead checks the container stores the consensus
// once, not per shard: many small shards must not multiply its cost.
func TestSharedConsensusOverhead(t *testing.T) {
	rs, ref := testSet(t, 200)
	one := DefaultOptions(ref)
	one.ShardReads = 200
	many := DefaultOptions(ref)
	many.ShardReads = 20
	dOne, _, err := Compress(rs, one)
	if err != nil {
		t.Fatal(err)
	}
	dMany, _, err := Compress(rs, many)
	if err != nil {
		t.Fatal(err)
	}
	consBytes := (len(ref) + 3) / 4
	if len(dMany) > len(dOne)+consBytes {
		t.Fatalf("10x sharding grew container by %d bytes (consensus is %d): consensus duplicated?",
			len(dMany)-len(dOne), consBytes)
	}
}

// TestAgainstCore cross-checks that a shard block decoded alone matches
// what the core codec would produce for the same records.
func TestAgainstCore(t *testing.T) {
	rs, ref := testSet(t, 90)
	opt := DefaultOptions(ref)
	opt.ShardReads = 30
	data, _, err := Compress(rs, opt)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumShards() != 3 {
		t.Fatalf("got %d shards, want 3", c.NumShards())
	}
	for i := 0; i < c.NumShards(); i++ {
		blk, err := c.Block(i)
		if err != nil {
			t.Fatal(err)
		}
		sub := &fastq.ReadSet{Records: rs.Records[i*30 : (i+1)*30]}
		got, err := core.Decompress(blk, ref)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if !fastq.Equivalent(sub, got) {
			t.Fatalf("shard %d does not decode to its source batch", i)
		}
	}
}

func TestInspect(t *testing.T) {
	rs, ref := testSet(t, 100)
	opt := DefaultOptions(ref)
	opt.ShardReads = 40
	data, _, err := Compress(rs, opt)
	if err != nil {
		t.Fatal(err)
	}
	info, err := Inspect(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sharded container", "100", "3 shards", "crc32", "B/read", "ratio", "total"} {
		if !strings.Contains(info, want) {
			t.Fatalf("Inspect output missing %q:\n%s", want, info)
		}
	}
	if strings.Contains(info, "undecodable") {
		t.Fatalf("Inspect flagged a healthy container:\n%s", info)
	}
	// The totals row and every shard row carry a computed ratio; a
	// container of short reads compresses, so ratios exceed 1x.
	if n := strings.Count(info, "x\n"); n != 4 { // 3 shards + totals
		t.Fatalf("Inspect shows %d ratio cells, want 4:\n%s", n, info)
	}
}

// TestInspectCorruptShard: Inspect renders every shard on the one
// decode pool and carries each decode's error as a value, so one
// corrupt shard shows "-" and is flagged while the shards around it
// keep the ratios of their rendered text.
func TestInspectCorruptShard(t *testing.T) {
	rs, ref := testSet(t, 100)
	opt := DefaultOptions(ref)
	opt.ShardReads = 40
	data, _, err := Compress(rs, opt)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := Inspect(data)
	if err != nil {
		t.Fatal(err)
	}
	off, length, err := c.Extent(1)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Clone(data)
	bad[off+length/2] ^= 0x40
	info, err := Inspect(bad)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(info, "! undecodable: shard 1: ") || !strings.Contains(info, "checksum mismatch") ||
		strings.Count(info, "undecodable") != 1 {
		t.Fatalf("Inspect of a container with shard 1 corrupt:\n%s", info)
	}
	healthyRows, rows := strings.Split(healthy, "\n"), strings.Split(info, "\n")
	for i := 0; i < c.NumShards(); i++ {
		text, err := c.AppendFASTQ(nil, i)
		if err != nil {
			t.Fatal(err)
		}
		ratio := fmt.Sprintf("%.2fx", float64(len(text))/float64(c.Index.Entries[i].Length))
		row := slices.IndexFunc(rows, func(r string) bool { return strings.HasPrefix(r, fmt.Sprintf("%6d  ", i)) })
		if row < 0 {
			t.Fatalf("no row for shard %d:\n%s", i, info)
		}
		if !strings.HasSuffix(healthyRows[row], ratio) {
			t.Fatalf("healthy shard %d row %q, want ratio %s", i, healthyRows[row], ratio)
		}
		want := ratio
		if i == 1 {
			want = "-"
		}
		if !strings.HasSuffix(rows[row], " "+want) {
			t.Fatalf("shard %d row %q, want ratio %s", i, rows[row], want)
		}
	}
}

// stripConsensus rebuilds data's header without the consensus
// (marshalHeader(ix, nil)) in front of data's blocks: the container a
// writer that did not embed its consensus would have made.
func stripConsensus(t testing.TB, data []byte) []byte {
	t.Helper()
	c, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := marshalHeader(&c.Index, nil)
	if err != nil {
		t.Fatal(err)
	}
	return append(hdr, data[c.blockBase:]...)
}

// TestInspectNoConsensus: a container whose header embeds no consensus
// opens, lists its index and serves its raw blocks, and every decode of
// it fails with errNoConsensus. Inspect still renders the summary: the
// ratio columns read "-" and every shard is flagged with that error.
// testdata/no_consensus_v4.sage, which the serve, instorage and CLI
// tests read, is golden_v4.sage made so.
func TestInspectNoConsensus(t *testing.T) {
	golden := readTestdata(t, "golden_v4.sage")
	data := stripConsensus(t, golden)
	if !bytes.Equal(data, readTestdata(t, "no_consensus_v4.sage")) {
		t.Fatal("testdata/no_consensus_v4.sage is not golden_v4.sage without its consensus")
	}
	c, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Parse(golden)
	if err != nil {
		t.Fatal(err)
	}
	if c.Consensus != nil || c.NumShards() != 3 || c.Index.TotalReads != want.Index.TotalReads {
		t.Fatalf("opened %d shards, %d reads, %d consensus bases", c.NumShards(), c.Index.TotalReads, len(c.Consensus))
	}
	for i := range c.NumShards() {
		blk, err := c.Block(i)
		if err != nil {
			t.Fatalf("raw block %d: %v", i, err)
		}
		if wantBlk, _ := want.Block(i); !bytes.Equal(blk, wantBlk) {
			t.Fatalf("raw block %d differs from the golden's", i)
		}
	}

	decodes := map[string]func() error{
		"DecompressShard": func() error { _, err := c.DecompressShard(0, genome.MustFromString("ACGT")); return err },
		"AppendFASTQ":     func() error { _, err := c.AppendFASTQ(nil, 1); return err },
		"AppendBlockFASTQ": func() error {
			blk, _ := c.Block(2)
			_, err := c.AppendBlockFASTQ(nil, 2, blk)
			return err
		},
		"DecompressTo": func() error { return c.DecompressTo(io.Discard, want.Consensus, 2) },
		"DecompressOriginalTo": func() error {
			return c.DecompressOriginalTo(io.Discard, nil, 2, reorder.SortConfig{})
		},
		"Filter": func() error { _, err := c.Filter(io.Discard, &Predicate{}, 2); return err },
	}
	for name, decode := range decodes {
		if err := decode(); !errors.Is(err, errNoConsensus) {
			t.Errorf("%s: %v, want %v", name, err, errNoConsensus)
		}
	}

	info, err := Inspect(data)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(info, "embedded: false") ||
		strings.Count(info, "! undecodable: ") != 3 || strings.Count(info, errNoConsensus.Error()) != 3 {
		t.Fatalf("Inspect of consensus-free container:\n%s", info)
	}
}
