package shard

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"sage/internal/fastq"
)

// multiInputs serializes slices of a simulated read set as separate
// FASTQ "files".
func multiInputs(t *testing.T, rs *fastq.ReadSet, cuts ...int) []fastq.NamedReader {
	t.Helper()
	var out []fastq.NamedReader
	prev := 0
	for i, cut := range append(cuts, len(rs.Records)) {
		sub := fastq.ReadSet{Records: rs.Records[prev:cut]}
		out = append(out, fastq.NamedReader{
			Name: fmt.Sprintf("lane%d.fq", i+1),
			R:    bytes.NewReader(sub.Bytes()),
		})
		prev = cut
	}
	return out
}

// TestCompressSourcesFileAware checks the acceptance invariants of
// multi-file ingest: one container, shards never span source files, and
// the manifest attributes every shard and read to its file.
func TestCompressSourcesFileAware(t *testing.T) {
	rs, ref := testSet(t, 300)
	opt := DefaultOptions(ref)
	opt.ShardReads = 64

	// 130 + 100 + 70 reads: each file needs a short tail shard.
	mr, err := fastq.NewMultiReader(multiInputs(t, rs, 130, 230), opt.ShardReads)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	st, err := CompressPipeline(mr, &buf, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st.Reads != 300 || st.Sources != 3 {
		t.Fatalf("stats: %+v", st)
	}
	c, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// Identity-order containers keep the v4 version byte; only a
	// reordered container writes FormatVersion (5).
	if c.Version != zoneMapVersion {
		t.Fatalf("container version %d, want %d", c.Version, zoneMapVersion)
	}
	// File-aware sharding: 130→64+64+2, 100→64+36, 70→64+6.
	wantReads := []int{64, 64, 2, 64, 36, 64, 6}
	wantSrcs := []int{0, 0, 0, 1, 1, 2, 2}
	if c.NumShards() != len(wantReads) {
		t.Fatalf("got %d shards, want %d", c.NumShards(), len(wantReads))
	}
	for i, e := range c.Index.Entries {
		if e.ReadCount != wantReads[i] || e.Source != wantSrcs[i] {
			t.Fatalf("shard %d: reads=%d source=%d, want reads=%d source=%d",
				i, e.ReadCount, e.Source, wantReads[i], wantSrcs[i])
		}
	}
	wantPerFile := []int{130, 100, 70}
	for i, s := range c.Index.Sources {
		if s.Name != fmt.Sprintf("lane%d.fq", i+1) || s.Mate != "" || s.Reads != wantPerFile[i] {
			t.Fatalf("manifest[%d] = %+v", i, s)
		}
	}
	if got := c.Index.SourceShards(); got[0] != 3 || got[1] != 2 || got[2] != 2 {
		t.Fatalf("SourceShards = %v", got)
	}

	// The whole set round-trips from the single container.
	got, err := Decompress(buf.Bytes(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !fastq.Equivalent(rs, got) {
		t.Fatal("multi-file container does not round-trip the combined read set")
	}
}

// TestCompressSourcesDeterministic checks worker count changes wall time
// only, never the container bytes — manifest included.
func TestCompressSourcesDeterministic(t *testing.T) {
	rs, ref := testSet(t, 200)
	opt := DefaultOptions(ref)
	opt.ShardReads = 32
	var want []byte
	for _, workers := range []int{1, 3, 8} {
		opt.Workers = workers
		mr, err := fastq.NewMultiReader(multiInputs(t, rs, 90), opt.ShardReads)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := CompressPipeline(mr, &buf, opt); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("workers=%d: container bytes differ", workers)
		}
	}
}

// pairedSet rewrites a read set as R1/R2 mates: consecutive records
// become a pair named p.N/1 and p.N/2.
func pairedSet(t *testing.T, rs *fastq.ReadSet) (r1, r2 *fastq.ReadSet) {
	t.Helper()
	if len(rs.Records)%2 != 0 {
		t.Fatalf("pairedSet needs an even read count, got %d", len(rs.Records))
	}
	r1, r2 = &fastq.ReadSet{}, &fastq.ReadSet{}
	for i := 0; i+1 < len(rs.Records); i += 2 {
		a, b := rs.Records[i], rs.Records[i+1]
		a.Header = fmt.Sprintf("p.%d/1", i/2)
		b.Header = fmt.Sprintf("p.%d/2", i/2)
		r1.Records = append(r1.Records, a)
		r2.Records = append(r2.Records, b)
	}
	return r1, r2
}

// TestCompressSourcesPaired checks the paired-end path end to end: one
// container from an R1/R2 pair, interleaved mate order, a mate-pair
// manifest entry, and mates never split across shards.
func TestCompressSourcesPaired(t *testing.T) {
	rs, ref := testSet(t, 300)
	r1, r2 := pairedSet(t, rs)
	opt := DefaultOptions(ref)
	opt.ShardReads = 64
	mr, err := fastq.NewPairedReader([][2]fastq.NamedReader{{
		{Name: "run_R1.fq", R: bytes.NewReader(r1.Bytes())},
		{Name: "run_R2.fq", R: bytes.NewReader(r2.Bytes())},
	}}, opt.ShardReads)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	st, err := CompressPipeline(mr, &buf, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st.Reads != 300 || st.Sources != 1 {
		t.Fatalf("stats: %+v", st)
	}
	c, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	s := c.Index.Sources[0]
	if s.Name != "run_R1.fq" || s.Mate != "run_R2.fq" || s.Reads != 300 {
		t.Fatalf("manifest = %+v", s)
	}
	// Every shard holds whole mate pairs: for each pair number decoded
	// from a shard, both the /1 and /2 mate are in that same shard (the
	// codec may reorder records within a block, but never across one).
	pairs := 0
	for i := 0; i < c.NumShards(); i++ {
		if n := c.Index.Entries[i].ReadCount; n%2 != 0 {
			t.Fatalf("shard %d holds %d reads: a mate pair was split", i, n)
		}
		got, err := c.DecompressShard(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		mates := make(map[string]int)
		for _, r := range got.Records {
			name, _, ok := strings.Cut(r.Header, "/")
			if !ok {
				t.Fatalf("shard %d: unexpected header %q", i, r.Header)
			}
			mates[name]++
		}
		for name, n := range mates {
			if n != 2 {
				t.Fatalf("shard %d: pair %q has %d mates in the shard, want 2", i, name, n)
			}
		}
		pairs += len(mates)
	}
	if pairs != 150 {
		t.Fatalf("decoded %d pairs, want 150", pairs)
	}
}

// TestCompressSourcesOddShardReads checks the container records the
// reader's effective (even) batch size as its shard target when an odd
// ShardReads meets paired mode — the header must describe the shards
// actually written.
func TestCompressSourcesOddShardReads(t *testing.T) {
	rs, ref := testSet(t, 300)
	r1, r2 := pairedSet(t, rs)
	opt := DefaultOptions(ref)
	opt.ShardReads = 101 // paired reader rounds down to 100
	mr, err := fastq.NewPairedReader([][2]fastq.NamedReader{{
		{Name: "r1.fq", R: bytes.NewReader(r1.Bytes())},
		{Name: "r2.fq", R: bytes.NewReader(r2.Bytes())},
	}}, opt.ShardReads)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := CompressPipeline(mr, &buf, opt); err != nil {
		t.Fatal(err)
	}
	c, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if c.Index.ShardReads != 100 {
		t.Fatalf("recorded shard target %d, want the reader's effective 100", c.Index.ShardReads)
	}
	for i, e := range c.Index.Entries[:len(c.Index.Entries)-1] {
		if e.ReadCount != 100 {
			t.Fatalf("shard %d holds %d reads, want 100", i, e.ReadCount)
		}
	}
}

// TestCompressSourcesErrors checks ingest-side failures (mate mismatch,
// unequal lengths) surface through CompressPipeline instead of writing a
// half container.
func TestCompressSourcesErrors(t *testing.T) {
	_, ref := testSet(t, 1)
	opt := DefaultOptions(ref)
	opt.ShardReads = 4
	cases := []struct {
		name   string
		r1, r2 string
		want   string
	}{
		{
			name: "mate mismatch",
			r1:   "@a/1\nACGT\n+\nIIII\n",
			r2:   "@b/2\nACGT\n+\nIIII\n",
			want: "mate name mismatch",
		},
		{
			name: "unequal lengths",
			r1:   "@a/1\nACGT\n+\nIIII\n@b/1\nACGT\n+\nIIII\n",
			r2:   "@a/2\nACGT\n+\nIIII\n",
			want: "unequal read counts",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mr, err := fastq.NewPairedReader([][2]fastq.NamedReader{{
				{Name: "r1.fq", R: strings.NewReader(tc.r1)},
				{Name: "r2.fq", R: strings.NewReader(tc.r2)},
			}}, opt.ShardReads)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			_, err = CompressPipeline(mr, &buf, opt)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestInspectManifest checks the per-shard source column and per-file
// totals render for manifest-bearing containers.
func TestInspectManifest(t *testing.T) {
	rs, ref := testSet(t, 120)
	opt := DefaultOptions(ref)
	opt.ShardReads = 40
	mr, err := fastq.NewMultiReader(multiInputs(t, rs, 50), opt.ShardReads)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := CompressPipeline(mr, &buf, opt); err != nil {
		t.Fatal(err)
	}
	info, err := Inspect(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"sharded container v4",
		"source", "lane1.fq", "lane2.fq",
		"files: 2 sources",
		"file-aware",
	} {
		if !strings.Contains(info, want) {
			t.Fatalf("Inspect output missing %q:\n%s", want, info)
		}
	}
	if strings.Contains(info, "undecodable") {
		t.Fatalf("Inspect flagged a healthy container:\n%s", info)
	}
}

// TestOpenManifest checks the lazily opened path surfaces the manifest
// identically to Parse.
func TestOpenManifest(t *testing.T) {
	rs, ref := testSet(t, 150)
	opt := DefaultOptions(ref)
	opt.ShardReads = 50
	mr, err := fastq.NewMultiReader(multiInputs(t, rs, 70), opt.ShardReads)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := CompressPipeline(mr, &buf, opt); err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	opened, err := Open(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", opened.Index) != fmt.Sprintf("%+v", parsed.Index) {
		t.Fatalf("Open index %+v differs from Parse index %+v", opened.Index, parsed.Index)
	}
	for i := range opened.Index.Entries {
		a, err := opened.DecompressShard(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := parsed.DecompressShard(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("shard %d decodes differently via Open vs Parse", i)
		}
	}
}
