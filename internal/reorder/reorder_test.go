package reorder

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"sage/internal/fastq"
	"sage/internal/genome"
)

func rec(name, seq string) fastq.Record {
	s := genome.MustFromString(seq)
	q := make([]byte, len(s))
	for i := range q {
		q[i] = 30
	}
	return fastq.Record{Header: name, Seq: s, Qual: q}
}

// batchUp splits records into batches of size, all attributed to src.
func batchUp(recs []fastq.Record, size, src int) []fastq.Batch {
	var out []fastq.Batch
	for i := 0; i < len(recs); i += size {
		end := i + size
		if end > len(recs) {
			end = len(recs)
		}
		out = append(out, fastq.Batch{Index: len(out), Source: src, Records: recs[i:end]})
	}
	return out
}

// drain runs the stage to EOF and returns the emitted records.
func drain(t *testing.T, st *Stage) []fastq.Record {
	t.Helper()
	var out []fastq.Record
	for {
		b, err := st.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b.Records...)
	}
}

// checkPerm asserts perm is a valid permutation of [0, n) and that
// out[i] is the original record perm[i].
func checkPerm(t *testing.T, perm []int64, orig, out []fastq.Record) {
	t.Helper()
	if len(perm) != len(orig) || len(out) != len(orig) {
		t.Fatalf("sizes: perm=%d out=%d orig=%d", len(perm), len(out), len(orig))
	}
	seen := make([]bool, len(orig))
	for i, p := range perm {
		if p < 0 || p >= int64(len(orig)) || seen[p] {
			t.Fatalf("perm[%d]=%d invalid or duplicate", i, p)
		}
		seen[p] = true
		if out[i].Header != orig[p].Header {
			t.Fatalf("out[%d]=%q but perm says original %d=%q", i, out[i].Header, p, orig[p].Header)
		}
	}
}

func TestClumpKeyProperties(t *testing.T) {
	const k = DefaultK
	seq := genome.MustFromString("ACGTTGCAGGTCAATCGGA")
	if clumpKey(seq, k) != clumpKey(seq, k) {
		t.Fatal("clumpKey not deterministic")
	}
	// Canonical: a read and its reverse complement share the minimizer.
	rc := make(genome.Seq, len(seq))
	for i, b := range seq {
		rc[len(seq)-1-i] = 3 - b
	}
	if clumpKey(seq, k) != clumpKey(rc, k) {
		t.Fatal("clumpKey not strand-canonical")
	}
	// Too short, or N-broken below a full window: sentinel key.
	if clumpKey(genome.MustFromString("ACGT"), k) != ^uint64(0) {
		t.Fatal("short read should key to MaxUint64")
	}
	withN := genome.MustFromString("ACGTTNGCAGG") // longest clean run < k
	if clumpKey(withN, k) != ^uint64(0) {
		t.Fatal("N-broken read without a full window should key to MaxUint64")
	}
}

// Two interleaved clusters of identical sequences must come out fully
// separated, with input order preserved inside each cluster (the sort
// tie-breaks on original index).
func TestStageClusters(t *testing.T) {
	seqA := "ACGTTGCAGGTCAATCGGATTTACGCAT"
	seqB := "GGGGACCACTAGATTACAAGGGTGGGTC"
	var orig []fastq.Record
	for i := 0; i < 6; i++ {
		orig = append(orig, rec(fmt.Sprintf("a%d", i), seqA), rec(fmt.Sprintf("b%d", i), seqB))
	}
	st, err := NewStage(fastq.SliceSource(batchUp(orig, 5, 0)),
		Config{Mode: ModeClump, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	out := drain(t, st)
	checkPerm(t, st.Perm(), orig, out)
	// All of one cluster, then all of the other, each in input order.
	var names []string
	for _, r := range out {
		names = append(names, r.Header)
	}
	got := strings.Join(names, " ")
	wantA := "a0 a1 a2 a3 a4 a5"
	wantB := "b0 b1 b2 b3 b4 b5"
	if got != wantA+" "+wantB && got != wantB+" "+wantA {
		t.Fatalf("clusters not separated: %s", got)
	}
	if st.SpilledRuns() != 0 {
		t.Fatalf("tiny input spilled %d runs", st.SpilledRuns())
	}
}

// Paired mode: mates move as one unit, staying adjacent with R1 first,
// and their perm entries are consecutive.
func TestStagePaired(t *testing.T) {
	seqA := "ACGTTGCAGGTCAATCGGATTTACGCAT"
	seqB := "GGGGACCACTAGATTACAAGGGTGGGTC"
	var orig []fastq.Record
	for i := 0; i < 4; i++ {
		s := seqA
		if i%2 == 1 {
			s = seqB
		}
		orig = append(orig,
			rec(fmt.Sprintf("p%d/1", i), s),
			rec(fmt.Sprintf("p%d/2", i), "NNNNNNNNNNNN")) // R2 all-N: key comes from R1
	}
	st, err := NewStage(fastq.SliceSource(batchUp(orig, 4, 0)),
		Config{Mode: ModeClump, BatchSize: 5, Paired: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.BatchSize() != 4 {
		t.Fatalf("paired batch size not rounded even: %d", st.BatchSize())
	}
	out := drain(t, st)
	checkPerm(t, st.Perm(), orig, out)
	perm := st.Perm()
	for i := 0; i < len(out); i += 2 {
		r1, r2 := out[i].Header, out[i+1].Header
		if !strings.HasSuffix(r1, "/1") || r2 != strings.TrimSuffix(r1, "/1")+"/2" {
			t.Fatalf("pair split at %d: %q %q", i, r1, r2)
		}
		if perm[i+1] != perm[i]+1 || perm[i]%2 != 0 {
			t.Fatalf("pair perm not consecutive at %d: %d %d", i, perm[i], perm[i+1])
		}
	}
}

func TestStagePairedOddBatch(t *testing.T) {
	orig := []fastq.Record{rec("x", "ACGTTGCAGGTCAATCGGATTTACGCAT")}
	st, err := NewStage(fastq.SliceSource(batchUp(orig, 4, 0)),
		Config{Mode: ModeClump, Paired: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Next(); err == nil {
		t.Fatal("odd paired batch accepted")
	}
}

// Records never cross source boundaries: each source sorts on its own,
// and emitted batches carry the right Source index in upstream order.
func TestStagePerSource(t *testing.T) {
	seqA := "ACGTTGCAGGTCAATCGGATTTACGCAT"
	seqB := "GGGGACCACTAGATTACAAGGGTGGGTC"
	var orig []fastq.Record
	var batches []fastq.Batch
	for src := 0; src < 3; src++ {
		var recs []fastq.Record
		for i := 0; i < 4; i++ {
			s := seqA
			if i%2 == 0 {
				s = seqB
			}
			recs = append(recs, rec(fmt.Sprintf("s%dr%d", src, i), s))
		}
		orig = append(orig, recs...)
		for _, b := range batchUp(recs, 3, src) {
			b.Index = len(batches)
			batches = append(batches, b)
		}
	}
	st, err := NewStage(fastq.SliceSource(batches), Config{Mode: ModeClump, BatchSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var out []fastq.Record
	lastSrc := 0
	for {
		b, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if b.Source < lastSrc {
			t.Fatalf("source went backwards: %d after %d", b.Source, lastSrc)
		}
		lastSrc = b.Source
		for _, r := range b.Records {
			if want := fmt.Sprintf("s%d", b.Source); !strings.HasPrefix(r.Header, want) {
				t.Fatalf("record %q emitted under source %d", r.Header, b.Source)
			}
		}
		out = append(out, b.Records...)
	}
	checkPerm(t, st.Perm(), orig, out)
}

// randomRecords builds a reproducible random dataset; ~1/8 bases are N
// and some reads drop quality entirely.
func randomRecords(rng *rand.Rand, n int) []fastq.Record {
	const bases = "ACGTN"
	out := make([]fastq.Record, n)
	for i := range out {
		ln := 20 + rng.Intn(60)
		var sb strings.Builder
		for j := 0; j < ln; j++ {
			c := bases[rng.Intn(4)]
			if rng.Intn(8) == 0 {
				c = 'N'
			}
			sb.WriteByte(c)
		}
		out[i] = rec(fmt.Sprintf("r%04d", i), sb.String())
		if rng.Intn(5) == 0 {
			out[i].Qual = nil
		}
	}
	return out
}

// A memory budget far below the dataset forces spilled runs; the result
// must match the all-in-memory sort exactly, and the temp dir must be
// empty after Close.
func TestStageSpillsMatchInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	orig := randomRecords(rng, 400)

	inMem, err := NewStage(fastq.SliceSource(batchUp(orig, 64, 0)),
		Config{Mode: ModeClump, BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer inMem.Close()
	want := drain(t, inMem)
	if inMem.SpilledRuns() != 0 {
		t.Fatalf("in-memory run spilled %d", inMem.SpilledRuns())
	}

	tmp := t.TempDir()
	spill, err := NewStage(fastq.SliceSource(batchUp(orig, 64, 0)),
		Config{Mode: ModeClump, BatchSize: 64,
			Sort: SortConfig{MemBudget: 4 << 10, TmpDir: tmp}})
	if err != nil {
		t.Fatal(err)
	}
	defer spill.Close()
	got := drain(t, spill)
	if spill.SpilledRuns() == 0 {
		t.Fatal("4 KiB budget over ~400 reads did not spill")
	}
	checkPerm(t, spill.Perm(), orig, got)
	if len(got) != len(want) {
		t.Fatalf("spilled sort emitted %d records, in-memory %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Header != want[i].Header {
			t.Fatalf("order diverges at %d: spilled %q, in-memory %q", i, got[i].Header, want[i].Header)
		}
	}
	if err := spill.Close(); err != nil {
		t.Fatal(err)
	}
	assertNoRunFiles(t, tmp)
}

// A failing spill write must not leave orphaned run files behind — not
// the partial run, and not earlier healthy runs after Close.
func TestSpillFailureNoOrphans(t *testing.T) {
	fail := 0
	testSpillWriter = func(w io.Writer) io.Writer {
		fail++
		if fail >= 3 {
			return failWriter{}
		}
		return w
	}
	defer func() { testSpillWriter = nil }()

	rng := rand.New(rand.NewSource(11))
	orig := randomRecords(rng, 400)
	tmp := t.TempDir()
	st, err := NewStage(fastq.SliceSource(batchUp(orig, 64, 0)),
		Config{Mode: ModeClump, BatchSize: 64,
			Sort: SortConfig{MemBudget: 4 << 10, TmpDir: tmp}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sawErr := false
	for {
		_, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("injected write failure did not surface")
	}
	assertNoRunFiles(t, tmp)
	// Close after the failure stays safe and idempotent.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) {
	return 0, fmt.Errorf("injected disk failure")
}

func assertNoRunFiles(t *testing.T, dir string) {
	t.Helper()
	runs, err := filepath.Glob(filepath.Join(dir, "sage-sort-*.run"))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 0 {
		t.Fatalf("orphaned run files: %v", runs)
	}
}

// sameRecord reports whether got is want, telling a nil Qual from an
// empty one.
func sameRecord(got, want *fastq.Record) bool {
	return got.Header == want.Header && bytes.Equal(got.Seq, want.Seq) &&
		bytes.Equal(got.Qual, want.Qual) && (got.Qual == nil) == (want.Qual == nil)
}

// restore adds recs under perm to a restorer and returns what Emit
// yields, copied, with Emit's error.
func restore(t *testing.T, r *Restorer, recs []fastq.Record, perm []int64) ([]fastq.Record, error) {
	t.Helper()
	for i, p := range perm {
		if err := r.Add(p, recs[i]); err != nil {
			return nil, err
		}
	}
	var out []fastq.Record
	err := r.Emit(func(rec *fastq.Record) error {
		out = append(out, fastq.Record{Header: rec.Header, Seq: bytes.Clone(rec.Seq), Qual: bytes.Clone(rec.Qual)})
		return nil
	})
	return out, err
}

// Restorer inverts an arbitrary permutation in memory, spilled over a
// few ranges, and spilled one record per range, always into one file;
// a nil and an empty quality come back as they went in.
func TestRestorerRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	orig := randomRecords(rng, 300)
	orig[17].Qual = nil
	orig[18] = fastq.Record{Header: "empty", Seq: genome.Seq{}, Qual: []byte{}}
	orig[19] = fastq.Record{Header: "", Seq: genome.Seq{}}
	order := rng.Perm(len(orig))
	recs := make([]fastq.Record, len(orig))
	perm := make([]int64, len(orig))
	for i, p := range order {
		recs[i], perm[i] = orig[p], int64(p)
	}
	for _, budget := range []int64{0, 2 << 10, 1} {
		tmp := t.TempDir()
		r := NewRestorer(SortConfig{MemBudget: budget, TmpDir: tmp})
		out, err := restore(t, r, recs, perm)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(orig) {
			t.Fatalf("budget %d: emitted %d of %d records", budget, len(out), len(orig))
		}
		for i := range out {
			if !sameRecord(&out[i], &orig[i]) {
				t.Fatalf("budget %d, position %d: got %+v want %+v", budget, i, out[i], orig[i])
			}
		}
		if budget > 0 && r.off == 0 {
			t.Fatalf("%d-byte budget did not spill", budget)
		}
		// One byte makes every record its own range, in the one file.
		if budget == 1 && (r.width != 1 || len(r.ranges) != len(orig)) {
			t.Fatalf("width %d over %d ranges, want 1 over %d", r.width, len(r.ranges), len(orig))
		}
		if runs, _ := filepath.Glob(filepath.Join(tmp, "sage-sort-*.run")); budget > 0 && len(runs) != 1 {
			t.Fatalf("%d spill files, want 1", len(runs))
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		assertNoRunFiles(t, tmp)
	}
}

// Indices that are not exactly 0..n−1 fail by name, in memory and
// spilled, and never emit a record out of place.
func TestRestorerRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	orig := randomRecords(rng, 40)
	identity := func() []int64 {
		p := make([]int64, len(orig))
		for i := range p {
			p[i] = int64(i)
		}
		return p
	}
	cases := []struct {
		name string
		edit func([]int64) []int64
		want string
	}{
		{"repeated", func(p []int64) []int64 { p[30] = 12; return p }, "original index 12 repeated"},
		{"hole", func(p []int64) []int64 { return append(p[:25:25], p[26:]...) }, "original index 39 is outside the 39 records"},
		{"outside", func(p []int64) []int64 { p[7] = 1 << 40; return p }, "original index 1099511627776 is outside the 40 records"},
		{"negative", func(p []int64) []int64 { p[3] = -2; return p }, "negative original index -2"},
	}
	for _, tc := range cases {
		for _, budget := range []int64{0, 1 << 10} {
			t.Run(fmt.Sprintf("%s/budget=%d", tc.name, budget), func(t *testing.T) {
				perm := tc.edit(identity())
				recs := make([]fastq.Record, len(perm))
				for i, p := range perm {
					recs[i] = orig[min(max(p, 0), int64(len(orig)-1))]
				}
				tmp := t.TempDir()
				r := NewRestorer(SortConfig{MemBudget: budget, TmpDir: tmp})
				out, err := restore(t, r, recs, perm)
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("error %v, want one containing %q", err, tc.want)
				}
				for i := range out {
					if !sameRecord(&out[i], &orig[i]) {
						t.Fatalf("emitted %q at position %d before failing", out[i].Header, i)
					}
				}
				r.Close()
				assertNoRunFiles(t, tmp)
			})
		}
	}
	// In spilled ranges a repeat leaves a hole, named when its range
	// comes first.
	perm := identity()
	perm[2] = 35
	r := NewRestorer(SortConfig{MemBudget: 1 << 10, TmpDir: t.TempDir()})
	defer r.Close()
	if _, err := restore(t, r, orig, perm); err == nil || !strings.Contains(err.Error(), "original index 2 missing") {
		t.Fatalf("error %v, want index 2 missing", err)
	}
}

// byteLimit fails every write once n bytes have gone through.
type byteLimit struct {
	w io.Writer
	n int
}

func (b *byteLimit) Write(p []byte) (int, error) {
	if len(p) > b.n {
		n, _ := b.w.Write(p[:b.n])
		b.n = 0
		return n, fmt.Errorf("injected disk full")
	}
	b.n -= len(p)
	return b.w.Write(p)
}

// A spill write that fails at byte N, and a spill file cut short before
// Emit reads it back, each fail naming the file; Close leaves nothing.
func TestRestorerFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	orig := randomRecords(rng, 300)
	order := rng.Perm(len(orig))
	for _, n := range []int{0, 1, 700, 5000} {
		t.Run(fmt.Sprintf("write-fails-at-%d", n), func(t *testing.T) {
			testSpillWriter = func(w io.Writer) io.Writer { return &byteLimit{w: w, n: n} }
			defer func() { testSpillWriter = nil }()
			tmp := t.TempDir()
			r := NewRestorer(SortConfig{MemBudget: 2 << 10, TmpDir: tmp})
			var err error
			for _, p := range order {
				if err = r.Add(int64(p), orig[p]); err != nil {
					break
				}
			}
			if err == nil || !strings.Contains(err.Error(), filepath.Join(tmp, "sage-sort-")) {
				t.Fatalf("Add error %v does not name the spill file", err)
			}
			if err := r.Emit(func(*fastq.Record) error { return nil }); err == nil {
				t.Fatal("Emit after a failed spill succeeded")
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			assertNoRunFiles(t, tmp)
		})
	}
	t.Run("truncated", func(t *testing.T) {
		tmp := t.TempDir()
		r := NewRestorer(SortConfig{MemBudget: 2 << 10, TmpDir: tmp})
		for _, p := range order {
			if err := r.Add(int64(p), orig[p]); err != nil {
				t.Fatal(err)
			}
		}
		runs, _ := filepath.Glob(filepath.Join(tmp, "sage-sort-*.run"))
		if len(runs) != 1 {
			t.Fatalf("%d spill files, want 1", len(runs))
		}
		if err := os.Truncate(runs[0], r.off/2); err != nil {
			t.Fatal(err)
		}
		err := r.Emit(func(*fastq.Record) error { return nil })
		if err == nil || !strings.Contains(err.Error(), runs[0]) {
			t.Fatalf("Emit error %v does not name %s", err, runs[0])
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		assertNoRunFiles(t, tmp)
	})
}

// The run-file codec must round-trip nil vs empty quality distinctly.
func TestRunCodecNilQual(t *testing.T) {
	withNil := rec("n", "ACGTACGTACGTACGTACGT")
	withNil.Qual = nil
	empty := fastq.Record{Header: "e", Seq: genome.Seq{}, Qual: []byte{}}
	tmp := t.TempDir()
	s := newExtSorter(SortConfig{MemBudget: 1, TmpDir: tmp})
	if err := s.add(group{key: 1, seq: 0, recs: []fastq.Record{withNil}}); err != nil {
		t.Fatal(err)
	}
	if err := s.add(group{key: 2, seq: 1, recs: []fastq.Record{empty}}); err != nil {
		t.Fatal(err)
	}
	it, err := s.finish()
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	g1, ok, err := it.next()
	if err != nil || !ok {
		t.Fatalf("first group: ok=%v err=%v", ok, err)
	}
	if g1.recs[0].Qual != nil {
		t.Fatal("nil quality came back non-nil")
	}
	g2, ok, err := it.next()
	if err != nil || !ok {
		t.Fatalf("second group: ok=%v err=%v", ok, err)
	}
	if g2.recs[0].Qual == nil || len(g2.recs[0].Qual) != 0 {
		t.Fatalf("empty quality came back %v", g2.recs[0].Qual)
	}
}

// TestStagePreallocationBounded: a batch size far above the reads the
// stage holds allocates for the reads that come, not for the size.
func TestStagePreallocationBounded(t *testing.T) {
	const size = 1 << 21
	recs := []fastq.Record{rec("a", "ACGTACGTACGTAC"), rec("b", "GGCATTACGGCATT"), rec("c", "TTACGGCATTACGG")}
	st, err := NewStage(fastq.SliceSource([]fastq.Batch{{Records: recs}}),
		Config{Mode: ModeClump, BatchSize: size, Sort: SortConfig{TmpDir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b, err := st.Next()
	runtime.ReadMemStats(&after)
	if err != nil || len(b.Records) != len(recs) {
		t.Fatalf("Next: %d records, err %v", len(b.Records), err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 4<<20 {
		t.Errorf("one Next at batch size %d allocated %d bytes", size, grew)
	}
}

func TestNewStageRejects(t *testing.T) {
	src := fastq.SliceSource(nil)
	if _, err := NewStage(src, Config{}); err == nil {
		t.Fatal("the zero Mode accepted")
	}
}

// TestMain leaves no stray temp files in the default temp dir either.
func TestMain(m *testing.M) {
	code := m.Run()
	runs, _ := filepath.Glob(filepath.Join(os.TempDir(), "sage-sort-*.run"))
	if len(runs) != 0 {
		fmt.Fprintf(os.Stderr, "orphaned run files in %s: %v\n", os.TempDir(), runs)
		code = 1
	}
	os.Exit(code)
}
