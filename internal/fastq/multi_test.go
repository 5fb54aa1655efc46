package fastq

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
)

// fq builds FASTQ text for reads named like prefix.N carrying the given
// sequences.
func fq(prefix string, seqs ...string) string {
	var b strings.Builder
	for i, s := range seqs {
		fmt.Fprintf(&b, "@%s.%d\n%s\n+\n%s\n", prefix, i, s, strings.Repeat("I", len(s)))
	}
	return b.String()
}

// pairFq builds R1/R2 FASTQ text with classic /1 and /2 mate suffixes.
func pairFq(prefix string, n int, mate int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		seq := strings.Repeat([]string{"ACGT", "GGCA"}[mate-1], 3)
		fmt.Fprintf(&b, "@%s.%d/%d\n%s\n+\n%s\n", prefix, i, mate, seq, strings.Repeat("F", len(seq)))
	}
	return b.String()
}

func drain(t *testing.T, m *MultiReader) []Batch {
	t.Helper()
	var out []Batch
	for {
		b, err := m.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
}

// TestMultiReaderFileAware checks batches never span sources: each file
// ends with a short (or full) batch, and the next batch starts the next
// file even when the previous one did not fill up.
func TestMultiReaderFileAware(t *testing.T) {
	m, err := NewMultiReader([]NamedReader{
		{Name: "a.fq", R: strings.NewReader(fq("a", "ACGT", "ACGT", "ACGT", "ACGT", "ACGT"))}, // 5 reads
		{Name: "b.fq", R: strings.NewReader(fq("b", "GGCA", "GGCA", "GGCA"))},                 // 3 reads
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	batches := drain(t, m)
	// a.fq: 2+2+1, b.fq: 2+1 — the 1-read tail batches are the file
	// boundaries.
	wantSizes := []int{2, 2, 1, 2, 1}
	wantSrcs := []int{0, 0, 0, 1, 1}
	if len(batches) != len(wantSizes) {
		t.Fatalf("got %d batches, want %d", len(batches), len(wantSizes))
	}
	for i, b := range batches {
		if b.Index != i || len(b.Records) != wantSizes[i] || b.Source != wantSrcs[i] {
			t.Fatalf("batch %d: index=%d size=%d source=%d, want index=%d size=%d source=%d",
				i, b.Index, len(b.Records), b.Source, i, wantSizes[i], wantSrcs[i])
		}
	}
	if got := m.SourceReads(); got[0] != 5 || got[1] != 3 {
		t.Fatalf("source reads = %v, want [5 3]", got)
	}
	if srcs := m.Sources(); srcs[0].Display() != "a.fq" || srcs[1].Display() != "b.fq" {
		t.Fatalf("sources = %v", srcs)
	}
}

// TestMultiReaderEmptySource checks an empty file contributes no batch
// but still appears in the manifest with zero reads.
func TestMultiReaderEmptySource(t *testing.T) {
	m, err := NewMultiReader([]NamedReader{
		{Name: "empty.fq", R: strings.NewReader("")},
		{Name: "b.fq", R: strings.NewReader(fq("b", "ACGT"))},
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	batches := drain(t, m)
	if len(batches) != 1 || batches[0].Source != 1 || batches[0].Index != 0 {
		t.Fatalf("batches = %+v", batches)
	}
	if got := m.SourceReads(); got[0] != 0 || got[1] != 1 {
		t.Fatalf("source reads = %v, want [0 1]", got)
	}
}

// TestPairedInterleave checks R1/R2 records interleave mate by mate and
// whole pairs stay in one batch.
func TestPairedInterleave(t *testing.T) {
	m, err := NewPairedReader([][2]NamedReader{{
		{Name: "r1.fq", R: strings.NewReader(pairFq("p", 5, 1))},
		{Name: "r2.fq", R: strings.NewReader(pairFq("p", 5, 2))},
	}}, 5) // odd size rounds down to 4 = 2 pairs per batch
	if err != nil {
		t.Fatal(err)
	}
	batches := drain(t, m)
	wantSizes := []int{4, 4, 2}
	if len(batches) != len(wantSizes) {
		t.Fatalf("got %d batches, want %d", len(batches), len(wantSizes))
	}
	pair := 0
	for i, b := range batches {
		if len(b.Records) != wantSizes[i] || b.Source != 0 {
			t.Fatalf("batch %d: size=%d source=%d", i, len(b.Records), b.Source)
		}
		for j := 0; j < len(b.Records); j += 2 {
			r1, r2 := b.Records[j], b.Records[j+1]
			if r1.Header != fmt.Sprintf("p.%d/1", pair) || r2.Header != fmt.Sprintf("p.%d/2", pair) {
				t.Fatalf("pair %d interleaved wrong: %q / %q", pair, r1.Header, r2.Header)
			}
			pair++
		}
	}
	if srcs := m.Sources(); srcs[0].Display() != "r1.fq+r2.fq" {
		t.Fatalf("sources = %v", srcs)
	}
	if got := m.SourceReads(); got[0] != 10 {
		t.Fatalf("source reads = %v, want [10]", got)
	}
}

// TestPairedMateMismatch checks disagreeing mate names fail with both
// names in the error.
func TestPairedMateMismatch(t *testing.T) {
	r1 := "@x.0/1\nACGT\n+\nIIII\n@x.1/1\nACGT\n+\nIIII\n"
	r2 := "@x.0/2\nGGCA\n+\nIIII\n@y.1/2\nGGCA\n+\nIIII\n"
	m, err := NewPairedReader([][2]NamedReader{{
		{Name: "r1.fq", R: strings.NewReader(r1)},
		{Name: "r2.fq", R: strings.NewReader(r2)},
	}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Next()
	if err == nil || !strings.Contains(err.Error(), "mate name mismatch") ||
		!strings.Contains(err.Error(), `"x.1/1"`) || !strings.Contains(err.Error(), `"y.1/2"`) {
		t.Fatalf("got %v, want mate name mismatch naming both reads", err)
	}
}

// TestPairedUnequalLength checks an R1/R2 length mismatch is reported
// with the file that ran short.
func TestPairedUnequalLength(t *testing.T) {
	for _, tc := range []struct {
		n1, n2 int
		short  string
	}{
		{2, 3, "r1.fq"},
		{3, 2, "r2.fq"},
	} {
		m, err := NewPairedReader([][2]NamedReader{{
			{Name: "r1.fq", R: strings.NewReader(pairFq("p", tc.n1, 1))},
			{Name: "r2.fq", R: strings.NewReader(pairFq("p", tc.n2, 2))},
		}}, 64)
		if err != nil {
			t.Fatal(err)
		}
		_, err = m.Next()
		if err == nil || !strings.Contains(err.Error(), "unequal read counts") ||
			!strings.Contains(err.Error(), tc.short+" ended") {
			t.Fatalf("n1=%d n2=%d: got %v, want unequal-count error naming %s", tc.n1, tc.n2, err, tc.short)
		}
	}
}

// TestPairedParseErrorBeatsEOF checks a real parse error in one mate
// file is reported even when the other file ends cleanly at the same
// pair — an "unequal read counts" message would mask the corruption.
func TestPairedParseErrorBeatsEOF(t *testing.T) {
	r1 := pairFq("p", 1, 1)                                  // 1 clean read, then EOF
	r2 := pairFq("p", 1, 2) + "@p.1/2\nACGT\nbroken\nIIII\n" // malformed 2nd record
	m, err := NewPairedReader([][2]NamedReader{{
		{Name: "r1.fq", R: strings.NewReader(r1)},
		{Name: "r2.fq", R: strings.NewReader(r2)},
	}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Next()
	if err == nil || strings.Contains(err.Error(), "unequal read counts") ||
		!strings.Contains(err.Error(), "r2.fq") {
		t.Fatalf("got %v, want r2.fq parse error, not an unequal-count report", err)
	}
}

// TestPairedScanError checks malformed input is attributed to its file.
func TestPairedScanError(t *testing.T) {
	m, err := NewPairedReader([][2]NamedReader{{
		{Name: "r1.fq", R: strings.NewReader("@a/1\nACGT\n+\nIIII\n")},
		{Name: "r2.fq", R: strings.NewReader("@a/2\nACGT\nbroken\nIIII\n")},
	}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Next()
	if err == nil || !strings.Contains(err.Error(), "r2.fq") {
		t.Fatalf("got %v, want parse error naming r2.fq", err)
	}
}

func TestMultiReaderNoInputs(t *testing.T) {
	if _, err := NewMultiReader(nil, 4); err == nil {
		t.Fatal("NewMultiReader(nil) succeeded")
	}
	if _, err := NewPairedReader(nil, 4); err == nil {
		t.Fatal("NewPairedReader(nil) succeeded")
	}
}

// TestMateKey pins the mate-name normalization: the comment (after the
// first space) is cut first, then a trailing /1 or /2 is stripped.
func TestMateKey(t *testing.T) {
	cases := []struct{ h, want string }{
		{"read7/1", "read7"},
		{"read7/2", "read7"},
		{"read7", "read7"},
		{"read7/3", "read7/3"},
		{"M0:1:AB/1 1:N:0:ATC", "M0:1:AB"},
		{"M0:1:AB 2:N:0:ATC", "M0:1:AB"},
	}
	for _, c := range cases {
		if got := string(mateKeyBytes([]byte(c.h))); got != c.want {
			t.Fatalf("mateKeyBytes(%q) = %q, want %q", c.h, got, c.want)
		}
	}
}

// TestBatchPreallocationBounded: a batch size far above the input's read
// count allocates for the reads that come, not for the size. At 64 B a
// record, preallocating 1<<21 of them would take 128 MiB.
func TestBatchPreallocationBounded(t *testing.T) {
	const size = 1 << 21
	for name, open := range map[string]func() (BatchSource, error){
		"single": func() (BatchSource, error) {
			return NewBatchReader(strings.NewReader(fq("r", "ACGT", "GGCA", "TTAC")), size), nil
		},
		"paired": func() (BatchSource, error) {
			return NewPairedReader([][2]NamedReader{{
				{Name: "a_R1.fq", R: strings.NewReader(pairFq("p", 3, 1))},
				{Name: "a_R2.fq", R: strings.NewReader(pairFq("p", 3, 2))},
			}}, size)
		},
	} {
		src, err := open()
		if err != nil {
			t.Fatal(err)
		}
		grew, err := allocatedBy(func() error { _, err := src.Next(); return err })
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if grew >= 4<<20 {
			t.Errorf("%s: one Next at batch size %d allocated %d bytes", name, size, grew)
		}
	}
}

// TestScannerBufferBounded: opening many small inputs costs buffers
// sized for them. Eight 1-read inputs took 8.39 MB when every scanner
// preallocated a 1 MiB line buffer.
func TestScannerBufferBounded(t *testing.T) {
	inputs := make([]NamedReader, 8)
	for i := range inputs {
		inputs[i] = NamedReader{Name: fmt.Sprintf("lane%d.fq", i), R: strings.NewReader(fq("r", "ACGT"))}
	}
	grew, err := allocatedBy(func() error {
		m, err := NewMultiReader(inputs, 16)
		if err != nil {
			return err
		}
		_, err = m.Next()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if grew >= 1e6 {
		t.Errorf("opening eight 1-read inputs and reading a batch allocated %d bytes", grew)
	}
}

// A line longer than the scanner's first buffer still scans: the buffer
// grows to fit it.
func TestScannerLongLine(t *testing.T) {
	seq := strings.Repeat("ACGT", 50_000)
	rec, err := NewScanner(strings.NewReader(fq("r", seq))).Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Seq) != len(seq) || len(rec.Qual) != len(seq) {
		t.Fatalf("read %d bases, %d scores; want %d", len(rec.Seq), len(rec.Qual), len(seq))
	}
}

// allocatedBy returns the bytes the heap handed out while f ran.
func allocatedBy(f func() error) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}
