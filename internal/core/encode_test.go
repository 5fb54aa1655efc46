package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"sage/internal/fastq"
	"sage/internal/genome"
	"sage/internal/mapper"
)

// A SharedMapper is accepted when it was built over Options.Consensus —
// the same slice, without comparing, or an equal copy — and writes the
// block a private mapper writes; any other consensus is refused.
func TestCompressSharedMapperCheck(t *testing.T) {
	ref, rs := makeShortSet(t, 31, 8000, 60)
	opt := DefaultOptions(ref)
	want, err := Compress(rs, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.SharedMapper, err = mapper.New(ref, opt.Mapper)
	if err != nil {
		t.Fatal(err)
	}
	changed := ref.Clone()
	changed[len(changed)/2] ^= 1
	for _, tc := range []struct {
		name string
		cons genome.Seq
		ok   bool
	}{
		{"same slice", ref, true},
		{"equal copy", ref.Clone(), true},
		{"one base changed", changed, false},
		{"same array, one base shorter", ref[:len(ref)-1], false},
		{"one base longer", append(ref.Clone(), genome.BaseA), false},
	} {
		opt.Consensus = tc.cons
		enc, err := Compress(rs, opt)
		switch {
		case !tc.ok:
			if err == nil || !strings.Contains(err.Error(), "SharedMapper was built over a different consensus") {
				t.Errorf("%s: error %v, want the different-consensus one", tc.name, err)
			}
		case err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case !bytes.Equal(enc.Data, want.Data):
			t.Errorf("%s: the block differs from the one a private mapper writes", tc.name)
		}
	}
}

// Whatever the worker count — one (in line), a few, more than there are
// reads, GOMAXPROCS — planReads returns the same plans: mapped short and
// long reads, reads with N, and reads from elsewhere that stay unmapped.
func TestPlanReadsWorkerCountInvariant(t *testing.T) {
	ref, rs := makeShortSet(t, 32, 20000, 120)
	_, long := makeLongSet(t, 32, 20000, 6)
	rs.Records = append(rs.Records, long.Records...)
	rng := rand.New(rand.NewSource(33))
	for i := 0; i < 10; i++ {
		withN := rs.Records[i].Seq.Clone()
		withN[rng.Intn(len(withN))] = genome.BaseN
		rs.Records = append(rs.Records,
			fastq.Record{Header: "n", Seq: withN, Qual: rs.Records[i].Qual},
			fastq.Record{Header: "u", Seq: genome.Random(rng, 150), Qual: rs.Records[i].Qual})
	}
	opt := DefaultOptions(ref)
	m, err := mapper.New(ref, opt.Mapper)
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range []*fastq.ReadSet{rs, {Records: rs.Records[:3]}, {}} {
		opt.Workers = 1
		want := planReads(set, m, opt)
		mapped := 0
		for _, p := range want {
			if p.aln.Mapped {
				mapped++
			}
		}
		if len(set.Records) > 100 && (mapped < 100 || mapped == len(want)) {
			t.Fatalf("%d of %d reads mapped: the fixture should hold both kinds", mapped, len(want))
		}
		for _, workers := range []int{2, 5, 0} {
			opt.Workers = workers
			if got := planReads(set, m, opt); !reflect.DeepEqual(got, want) {
				t.Fatalf("%d reads: %d workers plan differently from one", len(set.Records), workers)
			}
		}
	}
}
