package reorder

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
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

// clumpKeyOracle is clumpKey as it was written with branches: the
// canonical code picked by comparison, the minimum kept by comparison.
func clumpKeyOracle(seq genome.Seq, k int) uint64 {
	const worst = ^uint64(0)
	best := worst
	shift := uint(2 * (k - 1))
	mask := (uint64(1) << (2 * k)) - 1
	var fwd, rc uint64
	run := 0
	for _, b := range seq {
		if b > 3 {
			run, fwd, rc = 0, 0, 0
			continue
		}
		fwd = ((fwd << 2) | uint64(b)) & mask
		rc = (rc >> 2) | (uint64(3-b) << shift)
		run++
		if run >= k {
			code := fwd
			if rc < fwd {
				code = rc
			}
			if h := mix64(code); h < best {
				best = h
			}
		}
	}
	return best
}

// TestClumpKeyMatchesOracle: the branch-free clumpKey keys every read as
// the branching loop did — every k the codes fit in, reads shorter and
// longer than a window, N runs, palindromic k-mers (fwd == rc).
func TestClumpKeyMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		k := DefaultK
		if i%2 == 1 {
			k = 1 + rng.Intn(31)
		}
		seq := make(genome.Seq, rng.Intn(300))
		for j := range seq {
			seq[j] = byte(rng.Intn(4))
			if rng.Intn(50) == 0 {
				seq[j] = genome.BaseN
			}
		}
		if i%7 == 0 && len(seq) >= 2 {
			// A palindrome: its k-mers read the same on both strands.
			for j := 0; j < len(seq)/2; j++ {
				seq[len(seq)-1-j] = 3 - seq[j]&3
				seq[j] &= 3
			}
		}
		if got, want := clumpKey(seq, k), clumpKeyOracle(seq, k); got != want {
			t.Fatalf("k=%d, %d bases: key %#x, oracle %#x", k, len(seq), got, want)
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

// render returns each record's FASTQ text and all of it in order: the
// restorer's input and the oracle of its output.
func render(recs []fastq.Record) (texts [][]byte, all []byte) {
	texts = make([][]byte, len(recs))
	for i := range recs {
		texts[i] = recs[i].AppendText(nil)
		all = append(all, texts[i]...)
	}
	return texts, all
}

// restore adds texts under perm to a restorer and returns what WriteTo
// writes, with the first error.
func restore(t *testing.T, r *Restorer, texts [][]byte, perm []int64) ([]byte, error) {
	t.Helper()
	for i, p := range perm {
		if err := r.AddText(p, texts[i]); err != nil {
			return nil, err
		}
	}
	var out bytes.Buffer
	_, err := r.WriteTo(&out)
	return out.Bytes(), err
}

// Restorer inverts an arbitrary permutation in memory, spilled over a
// few ranges, and spilled one record per range, always into one file,
// writing back exactly the text it was given; the record adapters
// (Add, Emit) give back the same records, a nil or empty quality as an
// empty quality line. WriteTo into the caller's own bufio.Writer leaves
// that writer the caller's: it takes later writes and flushes them.
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
	texts, _ := render(recs)
	_, want := render(orig)
	for _, budget := range []int64{0, 2 << 10, 1} {
		tmp := t.TempDir()
		// bufio.NewWriterSize hands back a writer already this large.
		var buf bytes.Buffer
		bw := bufio.NewWriterSize(&buf, 1<<16)
		r := NewRestorer(SortConfig{MemBudget: budget, TmpDir: tmp})
		for i, p := range perm {
			if err := r.AddText(p, texts[i]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := r.WriteTo(bw); err != nil {
			t.Fatal(err)
		}
		r.Close()
		r = NewRestorer(SortConfig{MemBudget: budget, TmpDir: tmp})
		_, err := restore(t, r, texts, perm)
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bw.WriteString("@tail\n"); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), append(bytes.Clone(want), "@tail\n"...)) {
			t.Fatalf("budget %d: the caller's bufio.Writer did not get the restore and then its own write", budget)
		}

		r = NewRestorer(SortConfig{MemBudget: budget, TmpDir: tmp})
		out, err := restore(t, r, texts, perm)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, want) {
			t.Fatalf("budget %d: wrote %d bytes unlike the %d of the input in order", budget, len(out), len(want))
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

		r = NewRestorer(SortConfig{MemBudget: budget, TmpDir: tmp})
		for i, p := range perm {
			if err := r.Add(p, recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		var emitted []byte
		if err := r.Emit(func(rec *fastq.Record) error {
			if len(rec.Seq) > 0 && rec.Qual != nil && len(rec.Qual) == 0 {
				t.Fatalf("record %q: an empty quality line came back as an empty Qual, not nil", rec.Header)
			}
			emitted = rec.AppendText(emitted)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(emitted, want) {
			t.Fatalf("budget %d: Emit's records are not the records added", budget)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		assertNoRunFiles(t, tmp)
	}
}

// Indices that are not exactly 0..n−1 fail by name, in memory and
// spilled, and never write a record out of place.
func TestRestorerRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	orig := randomRecords(rng, 40)
	otexts, want := render(orig)
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
				texts := make([][]byte, len(perm))
				for i, p := range perm {
					texts[i] = otexts[min(max(p, 0), int64(len(orig)-1))]
				}
				tmp := t.TempDir()
				r := NewRestorer(SortConfig{MemBudget: budget, TmpDir: tmp})
				out, err := restore(t, r, texts, perm)
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("error %v, want one containing %q", err, tc.want)
				}
				if !bytes.HasPrefix(want, out) {
					t.Fatalf("wrote %d bytes before failing, not the input's first", len(out))
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
	if _, err := restore(t, r, otexts, perm); err == nil || !strings.Contains(err.Error(), "original index 2 missing") {
		t.Fatalf("error %v, want index 2 missing", err)
	}
}

// TestRestoreMemoryBounded: a spilled restore of many budgets' worth of
// records holds O(budget + one range) however the indices arrive — the
// arena's blocks, the range buffers, the read-back buffer and the slot
// table stay within a small multiple of the budget.
func TestRestoreMemoryBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n, budget = 16_000, 256 << 10
	texts := make([][]byte, n)
	size := 0
	for i := range texts {
		r := rec(fmt.Sprintf("big.%d", i), strings.Repeat("ACGTTGCA", 19))
		texts[i] = r.AppendText(nil)
		size += len(texts[i])
	}
	if size < 12*budget {
		t.Fatalf("%d bytes of records, not past twelve budgets", size)
	}
	perm := make([]int64, n)
	for i, p := range rng.Perm(n) {
		perm[i] = int64(p)
	}
	shuffled := make([][]byte, n)
	for i, p := range perm {
		shuffled[i] = texts[p]
	}
	r := NewRestorer(SortConfig{MemBudget: budget, TmpDir: t.TempDir()})
	defer r.Close()
	held := func() int {
		c := cap(r.back) + 8*cap(r.slots)
		for _, b := range r.arena {
			c += cap(b)
		}
		for _, s := range r.ranges {
			c += cap(s.buf)
		}
		return c
	}
	for i, p := range perm {
		if err := r.AddText(p, shuffled[i]); err != nil {
			t.Fatal(err)
		}
		if c := held(); c > 8*budget {
			t.Fatalf("after %d records: %d bytes held under a %d-byte budget", i+1, c, budget)
		}
	}
	var out bytes.Buffer
	if _, err := r.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), bytes.Join(texts, nil)) {
		t.Fatal("the restore is not the records in order")
	}
	if r.off == 0 {
		t.Fatal("the budget did not spill")
	}
	if c := held(); c > 8*budget {
		t.Fatalf("after WriteTo: %d bytes held under a %d-byte budget", c, budget)
	}
}

// Restorers on several goroutines at once, in memory and spilled, each
// write back exactly their input: they share no buffer.
func TestRestorersConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	orig := randomRecords(rng, 400)
	_, want := render(orig)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		order := rng.Perm(len(orig))
		recs := make([]fastq.Record, len(orig))
		perm := make([]int64, len(orig))
		for i, p := range order {
			recs[i], perm[i] = orig[p], int64(p)
		}
		texts, _ := render(recs)
		tmp := t.TempDir()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				r := NewRestorer(SortConfig{MemBudget: int64(i%2) << 12, TmpDir: tmp})
				for j, p := range perm {
					if err := r.AddText(p, texts[j]); err != nil {
						t.Error(err)
						return
					}
				}
				var out bytes.Buffer
				_, err := r.WriteTo(&out)
				r.Close()
				if err != nil || !bytes.Equal(out.Bytes(), want) {
					t.Errorf("restore %d: %v, or the bytes are not the input in order", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
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
// WriteTo reads it back, each fail naming the file; Close leaves nothing.
func TestRestorerFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	orig := randomRecords(rng, 300)
	order := rng.Perm(len(orig))
	texts, _ := render(orig)
	for _, n := range []int{0, 1, 700, 5000} {
		t.Run(fmt.Sprintf("write-fails-at-%d", n), func(t *testing.T) {
			testSpillWriter = func(w io.Writer) io.Writer { return &byteLimit{w: w, n: n} }
			defer func() { testSpillWriter = nil }()
			tmp := t.TempDir()
			r := NewRestorer(SortConfig{MemBudget: 2 << 10, TmpDir: tmp})
			var err error
			for _, p := range order {
				if err = r.AddText(int64(p), texts[p]); err != nil {
					break
				}
			}
			if err == nil || !strings.Contains(err.Error(), filepath.Join(tmp, "sage-sort-")) {
				t.Fatalf("Add error %v does not name the spill file", err)
			}
			if _, err := r.WriteTo(io.Discard); err == nil {
				t.Fatal("WriteTo after a failed spill succeeded")
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
			if err := r.AddText(int64(p), texts[p]); err != nil {
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
		_, err := r.WriteTo(io.Discard)
		if err == nil || !strings.Contains(err.Error(), runs[0]) {
			t.Fatalf("WriteTo error %v does not name %s", err, runs[0])
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

// TestRunCodecGroups: mate-pair groups come back from a run as written,
// each costing three allocations whatever its record count, and a
// decoded sequence grown by append does not run into its quality.
func TestRunCodecGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var in []group
	var run bytes.Buffer
	bw := bufio.NewWriter(&run)
	for i := 0; i < 120; i++ {
		recs := make([]fastq.Record, 2)
		for m := range recs {
			seq := make([]byte, rng.Intn(200))
			for j := range seq {
				seq[j] = "ACGTN"[rng.Intn(5)]
			}
			recs[m] = rec(fmt.Sprintf("p.%d/%d", i, m+1), string(seq))
		}
		g := group{key: rng.Uint64(), seq: int64(2 * i), recs: recs}
		in = append(in, g)
		if err := writeGroup(bw, &g); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	rr := &runReader{br: bufio.NewReader(bytes.NewReader(run.Bytes()))}
	for i, want := range in {
		got, err := rr.readGroup()
		if err != nil {
			t.Fatal(err)
		}
		if got.key != want.key || got.seq != want.seq || len(got.recs) != 2 {
			t.Fatalf("group %d: key %d seq %d, %d records", i, got.key, got.seq, len(got.recs))
		}
		for m, r := range got.recs {
			w := want.recs[m]
			if r.Header != w.Header || !bytes.Equal(r.Seq, w.Seq) || !bytes.Equal(r.Qual, w.Qual) {
				t.Fatalf("group %d mate %d differs", i, m)
			}
		}
		q := append([]byte(nil), got.recs[0].Qual...)
		_ = append(got.recs[0].Seq, 3)
		if !bytes.Equal(got.recs[0].Qual, q) {
			t.Fatalf("group %d: appending to a sequence overwrote its quality", i)
		}
	}
	if _, err := rr.readGroup(); err != io.EOF {
		t.Fatalf("after the last group: %v, want io.EOF", err)
	}
	rr = &runReader{br: bufio.NewReader(bytes.NewReader(run.Bytes()))}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := rr.readGroup(); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Fatalf("a two-record group costs %v allocations, want 3", n)
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
