package mapper

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"sage/internal/genome"
	"sage/internal/simulate"
)

// probeClusters is collectClusters as it was before guided seeding: every
// seed probes the index. It is the reference the guided walk must equal.
func (m *Mapper) probeClusters(out []cluster, sc *mapScratch, oriented genome.Seq, rev bool) []cluster {
	hits := sc.hits[strand(rev)][:0]
	ForEachKmer(oriented, m.idx.k, m.cfg.seedStep, func(p int, code uint64) {
		for _, cp := range m.idx.Lookup(code) {
			hits = append(hits, newSeedHit(p, int(cp)-p))
		}
	})
	sc.hits[strand(rev)] = hits
	return m.clusterHits(out, hits, rev)
}

// checkSeedClusters compares the guided and the probing cluster lists of
// read on both strands, and the hits they keep as anchors.
func checkSeedClusters(m *Mapper, sc *mapScratch, read genome.Seq) error {
	rc := read.ReverseComplement()
	for _, o := range []struct {
		seq genome.Seq
		rev bool
	}{{read, false}, {rc, true}} {
		got := m.collectClusters(nil, sc, o.seq, o.rev)
		gotHits := slices.Clone(sc.hits[strand(o.rev)])
		want := m.probeClusters(nil, sc, o.seq, o.rev)
		if !slices.Equal(got, want) {
			return fmt.Errorf("read %s, rev=%v: guided seeding clusters %+v, probing every seed %+v", o.seq, o.rev, got, want)
		}
		if wantHits := sc.hits[strand(o.rev)]; !slices.Equal(gotHits, wantHits) {
			return fmt.Errorf("read %s, rev=%v: guided seeding hits %+v, probing every seed %+v", o.seq, o.rev, gotHits, wantHits)
		}
	}
	return nil
}

// workloadReads simulates the repository benchmark's read sets over a
// random genome of glen bases: short_plain's (Illumina-like, depth 18) or
// long_plain's (nanopore-like, 5 kb mean, 10 % errors, 5 % chimeras,
// depth 7). It returns the consensus and the reads.
func workloadReads(tb testing.TB, long bool, glen int, seed int64) (genome.Seq, []genome.Seq) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	ref := genome.Random(rng, glen)
	donor, _ := genome.Donor(rng, ref, genome.HumanLikeProfile())
	sim := simulate.New(rng, donor)
	var reads []genome.Seq
	var err error
	if long {
		p := simulate.DefaultLongProfile()
		p.MeanLen, p.MaxLen = 5000, 16000
		p.ErrRate = 0.10
		p.ChimeraRate = 0.05
		reads, err = seqsOf(sim.LongReads(max(8, glen*7/p.MeanLen), p))
	} else {
		p := simulate.DefaultShortProfile()
		n := max(64, glen*18/p.ReadLen)
		reads, err = seqsOf(sim.ShortReads(n-n%2, p))
	}
	if err != nil {
		tb.Fatal(err)
	}
	return ref, reads
}

// mutatedReads draws n reads of 60–400 bases from cons, with about one
// base in forty substituted, inserted, deleted or turned to N, and every
// other read reverse-complemented.
func mutatedReads(rng *rand.Rand, cons genome.Seq, n int) []genome.Seq {
	out := make([]genome.Seq, 0, n)
	for len(out) < n && len(cons) > 0 {
		l := min(len(cons), 60+rng.Intn(340))
		at := rng.Intn(len(cons) - l + 1)
		var r genome.Seq
		for _, b := range cons[at : at+l] {
			switch rng.Intn(160) {
			case 0:
				r = append(r, byte(rng.Intn(4)))
			case 1:
				r = append(r, b, byte(rng.Intn(4)))
			case 2:
			case 3:
				r = append(r, genome.BaseN)
			default:
				r = append(r, b)
			}
		}
		if len(out)%2 == 1 {
			r = r.ReverseComplement()
		}
		out = append(out, r)
	}
	return out
}

// TestSeedClustersMatchOracle checks guided seeding against probing every
// seed: identical cluster lists for the benchmark's short and long reads,
// for noisy reads with N, and for reads from a tandem repeat and from a
// consensus broken by N runs, under every seeding setting that changes
// which seeds exist or which lookups answer.
func TestSeedClustersMatchOracle(t *testing.T) {
	glen, fixtureReads := 40000, 120
	if testing.Short() || raceEnabled {
		glen, fixtureReads = 12000, 30
	}
	sc := new(mapScratch)
	for _, long := range []bool{false, true} {
		ref, reads := workloadReads(t, long, glen, 2)
		m, err := New(ref, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range reads {
			if err := checkSeedClusters(m, sc, r); err != nil {
				t.Fatalf("long=%v: %v", long, err)
			}
		}
	}

	rng := rand.New(rand.NewSource(22))
	noisy := simulate.DefaultShortProfile()
	noisy.SubRate, noisy.InsRate, noisy.DelRate, noisy.NRate = 0.02, 0.004, 0.004, 0.02
	fixtures := indexFixtures(rng, glen/4)
	noisyReads, err := seqsOf(simulate.New(rng, fixtures[0]).ShortReads(fixtureReads, noisy))
	if err != nil {
		t.Fatal(err)
	}
	readsOf := [][]genome.Seq{noisyReads}
	for _, cons := range fixtures[1:] {
		readsOf = append(readsOf, mutatedReads(rng, cons, fixtureReads))
	}
	for f, cons := range fixtures {
		for _, k := range []int{11, 15, 16, 17, 31} {
			for _, step := range []int{1, 3} {
				for _, seedStep := range []int{1, 4} {
					for _, maxOcc := range []int{1, 2, 64} {
						cfg := DefaultConfig()
						cfg.index = indexConfig{k: k, step: step, maxOcc: maxOcc}
						cfg.seedStep = seedStep
						m, err := New(cons, cfg)
						if err != nil {
							t.Fatal(err)
						}
						for _, r := range readsOf[f] {
							if err := checkSeedClusters(m, sc, r); err != nil {
								t.Fatalf("fixture %d, %+v, seed step %d: %v", f, cfg.index, seedStep, err)
							}
						}
					}
				}
			}
		}
	}
}

// FuzzSeedClusters draws a read from an arbitrary consensus (bytes taken
// mod 5 as base codes), mutates it by an arbitrary edit script, and checks
// guided seeding against probing every seed under an arbitrary k, step,
// seedStep and maxOcc.
func FuzzSeedClusters(f *testing.F) {
	f.Add([]byte("ACGTACGTACGTACGTACGTAAAAAAAAAAAAAAAAAAAAAAAAACGGTCATTAGC"), uint16(3), uint16(40), []byte{7, 0, 1, 2}, uint8(0), uint8(0), uint8(3), uint8(0), false)
	f.Add([]byte{0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1, 2, 3, 0, 0, 1, 3, 2, 2, 1}, uint16(0), uint16(26), []byte{}, uint8(1), uint8(2), uint8(0), uint8(1), true)
	f.Add([]byte{}, uint16(0), uint16(0), []byte{1}, uint8(27), uint8(1), uint8(1), uint8(2), false)
	f.Fuzz(func(t *testing.T, raw []byte, at, length uint16, script []byte, k, step, seedStep, maxOcc uint8, rev bool) {
		cons, read := scriptedRead(raw, at, length, script, rev)
		cfg := DefaultConfig()
		cfg.index = indexConfig{k: 4 + int(k)%28, step: 1 + int(step)%5, maxOcc: 1 + int(maxOcc)%8}
		cfg.seedStep = 1 + int(seedStep)%5
		m, err := New(cons, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkSeedClusters(m, new(mapScratch), read); err != nil {
			t.Fatal(err)
		}
	})
}

// scriptedRead is a fuzz target's consensus and read: raw's bytes taken
// mod 5 as base codes, and the read drawn from length bases at at,
// mutated by an edit script and, for rev, reverse-complemented.
func scriptedRead(raw []byte, at, length uint16, script []byte, rev bool) (cons, read genome.Seq) {
	cons = make(genome.Seq, len(raw))
	for i, b := range raw {
		cons[i] = b % 5
	}
	start := min(int(at), len(cons))
	end := min(start+int(length), len(cons))
	read = cons[start:end].Clone()
	// Each script byte names a read position and what happens there:
	// a substitution, an insertion, a deletion or an N.
	for _, e := range script {
		if len(read) == 0 {
			break
		}
		p := int(e>>2) % len(read)
		switch e & 3 {
		case 0:
			read[p] = (read[p] + 1) % 4
		case 1:
			read = slices.Insert(read, p, e%4)
		case 2:
			read = slices.Delete(read, p, p+1)
		case 3:
			read[p] = genome.BaseN
		}
	}
	if rev {
		read = read.ReverseComplement()
	}
	return cons, read
}

// TestIndexBytesPerBase holds the seed table to its footprint on the
// repository benchmark's 96 kb consensus: at most 51 bytes per base live
// after the build, and nothing live beyond the Index's own arrays — the
// build's transient buckets and packed consensus are gone.
func TestIndexBytesPerBase(t *testing.T) {
	cons := genome.Random(rand.New(rand.NewSource(8)), 96000)
	var before, after runtime.MemStats
	// Two collections empty the pools' victim caches too.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	idx, err := newIndex(cons, defaultIndexConfig())
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	arrays := int64(cap(idx.slots))*16 + int64(cap(idx.present))*8 + int64(cap(idx.positions))*4 + int64(cap(idx.unique))*8
	runtime.KeepAlive(idx)
	perBase := float64(arrays) / float64(len(cons))
	t.Logf("index: %d B in its arrays, %.2f B per consensus base; %d B live after the build", arrays, perBase, live)
	if perBase > 51 {
		t.Errorf("the index keeps %.2f B per consensus base, want at most 51", perBase)
	}
	if live > arrays+4096 {
		t.Errorf("%d B live after the build, %d B more than the index's arrays", live, live-arrays)
	}
}
