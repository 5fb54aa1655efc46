package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sage/internal/bitio"
	"sage/internal/fastq"
	"sage/internal/genome"
	"sage/internal/mapper"
	"sage/internal/simulate"
)

// The encoder's component accounting as it was first written: every
// field charged the change in the sum of all five writers' lengths. The
// oracle for TestComponentBitsMatchOracle.

// oracleTotalBits sums the five writers' lengths.
func (e *streamEncoder) oracleTotalBits() uint64 {
	var t uint64
	for _, w := range e.writers {
		t += w.Len()
	}
	return t
}

// oracleEncodeRead writes one read record as encodeRead does. prevPos carries the matching-position
// cursor across reads for delta encoding.
func (e *streamEncoder) oracleEncodeRead(seq genome.Seq, p readPlan, prevPos *int) error {
	mpga, mpa := e.writers[sMPGA], e.writers[sMPA]
	mbta := e.writers[sMBTA]
	baseBits := uint(2)
	if p.hasN {
		baseBits = 3
	}

	// 1. Matching position delta.
	pos := *prevPos
	if p.aln.Mapped {
		pos = p.aln.Segments[0].ConsPos
	}
	before := e.oracleTotalBits()
	if err := e.tables[tabMatchDelta].EncodeValue(mpga, mpa, uint64(pos-*prevPos)); err != nil {
		return err
	}
	*prevPos = pos

	// 2. Strand bit for segment 0, 3. segment count.
	segs := p.aln.Segments
	rev0 := false
	if len(segs) > 0 {
		rev0 = segs[0].Rev
	}
	nSegs := len(segs)
	if nSegs == 0 {
		nSegs = 1 // unmapped reads occupy one logical segment
	}
	revBits := uint64(1)
	mpga.WriteBool(rev0)
	mpga.WriteUnary(uint(nSegs - 1))
	e.comp.MatchingPos += e.oracleTotalBits() - before - revBits

	// 4. Read length.
	before = e.oracleTotalBits()
	if e.fixedLen == 0 {
		if err := e.tables[tabReadLen].EncodeValue(mpga, mpa, uint64(len(seq))); err != nil {
			return err
		}
	}
	// 5. Extra segments: strand, absolute position, length.
	for s := 1; s < len(segs); s++ {
		mpga.WriteBool(segs[s].Rev)
		revBits++
		lenBefore := e.oracleTotalBits()
		if err := e.tables[tabReadLen].EncodeValue(mpga, mpa, uint64(segs[s].ReadLen)); err != nil {
			return err
		}
		e.comp.ReadLen += e.oracleTotalBits() - lenBefore
		posBefore := e.oracleTotalBits()
		mpa.WriteBits(uint64(segs[s].ConsPos), e.posWidth)
		e.comp.MatchingPos += e.oracleTotalBits() - posBefore
	}
	if e.fixedLen == 0 {
		// The whole-read length was the first thing in this span.
		e.comp.ReadLen += uint64(e.tables[tabReadLen].CostBits(uint64(len(seq))))
	}
	e.comp.Rev += revBits
	_ = before

	// 6+7. Per-segment mismatch records.
	if !p.aln.Mapped {
		return e.oracleEncodeUnmapped(seq, p, baseBits)
	}
	for s, seg := range segs {
		if err := e.oracleEncodeSegment(seq, p, s, seg, baseBits); err != nil {
			return err
		}
	}
	_ = mbta
	return nil
}

// oracleEncodeUnmapped writes the synthetic corner record carrying the raw read.
func (e *streamEncoder) oracleEncodeUnmapped(seq genome.Seq, p readPlan, baseBits uint) error {
	mmpga, mmpa := e.writers[sMMPGA], e.writers[sMMPA]
	mbta := e.writers[sMBTA]
	before := e.oracleTotalBits()
	if err := e.tables[tabMismatchCount].EncodeValue(mmpga, mmpga, 1); err != nil {
		return err
	}
	e.comp.MismatchCount += e.oracleTotalBits() - before
	before = e.oracleTotalBits()
	if err := e.tables[tabMismatchDelta].EncodeValue(mmpga, mmpa, 0); err != nil {
		return err
	}
	e.comp.MismatchPos += e.oracleTotalBits() - before
	before = e.oracleTotalBits()
	mbta.WriteBit(0)       // corner, not a genuine position-0 mismatch
	mbta.WriteBool(p.hasN) // payload: alphabet flag
	mbta.WriteBit(1)       // payload: unmapped
	e.comp.Corner += e.oracleTotalBits() - before
	before = e.oracleTotalBits()
	for _, b := range seq {
		mbta.WriteBits(uint64(b), baseBits)
	}
	e.comp.Unmapped += e.oracleTotalBits() - before
	return nil
}

// oracleEncodeSegment writes one segment's mismatch count, positions, bases and
// types, simulating the Read Construction Unit's consensus cursor so the
// substitution-inference markers (§5.1.2) are exactly reproducible.
func (e *streamEncoder) oracleEncodeSegment(seq genome.Seq, p readPlan, s int, seg mapper.Segment, baseBits uint) error {
	mmpga, mmpa := e.writers[sMMPGA], e.writers[sMMPA]
	mbta := e.writers[sMBTA]

	synthetic := s == 0 && p.corner
	count := len(seg.Edits)
	if synthetic {
		count++
	}
	before := e.oracleTotalBits()
	if err := e.tables[tabMismatchCount].EncodeValue(mmpga, mmpga, uint64(count)); err != nil {
		return err
	}
	e.comp.MismatchCount += e.oracleTotalBits() - before

	if synthetic {
		before = e.oracleTotalBits()
		if err := e.tables[tabMismatchDelta].EncodeValue(mmpga, mmpa, 0); err != nil {
			return err
		}
		e.comp.MismatchPos += e.oracleTotalBits() - before
		before = e.oracleTotalBits()
		mbta.WriteBit(0)       // corner record
		mbta.WriteBool(p.hasN) // payload: alphabet flag
		mbta.WriteBit(0)       // payload: mapped
		e.comp.Corner += e.oracleTotalBits() - before
	}

	cursor := seg.ConsPos
	out := 0
	prevMis := 0
	for j, ed := range seg.Edits {
		// Advance the simulated RCU cursor over matching bases.
		cursor += ed.ReadPos - out
		out = ed.ReadPos

		d := ed.ReadPos - prevMis
		prevMis = ed.ReadPos
		before = e.oracleTotalBits()
		if err := e.tables[tabMismatchDelta].EncodeValue(mmpga, mmpa, uint64(d)); err != nil {
			return err
		}
		e.comp.MismatchPos += e.oracleTotalBits() - before

		if s == 0 && j == 0 && !synthetic && d == 0 {
			// Disambiguate a genuine position-0 first mismatch from a
			// corner record (§5.1.4).
			before = e.oracleTotalBits()
			mbta.WriteBit(1)
			e.comp.Corner += e.oracleTotalBits() - before
		}

		consBase := e.consBaseAt(cursor)
		switch ed.Type {
		case genome.Substitution:
			if ed.Bases[0] == consBase {
				return fmt.Errorf("core: substitution marker collides with consensus at %d", cursor)
			}
			before = e.oracleTotalBits()
			mbta.WriteBits(uint64(ed.Bases[0]), baseBits)
			e.comp.MismatchBases += e.oracleTotalBits() - before
			cursor++
			out++
		case genome.Insertion:
			before = e.oracleTotalBits()
			mbta.WriteBits(uint64(consBase), baseBits)
			mbta.WriteBit(1) // insertion
			e.comp.MismatchTypes += e.oracleTotalBits() - before
			if err := e.oracleEncodeIndelLen(len(ed.Bases)); err != nil {
				return err
			}
			before = e.oracleTotalBits()
			for _, b := range ed.Bases {
				mbta.WriteBits(uint64(b), baseBits)
			}
			e.comp.MismatchBases += e.oracleTotalBits() - before
			out += len(ed.Bases)
		case genome.Deletion:
			before = e.oracleTotalBits()
			mbta.WriteBits(uint64(consBase), baseBits)
			mbta.WriteBit(0) // deletion
			e.comp.MismatchTypes += e.oracleTotalBits() - before
			if err := e.oracleEncodeIndelLen(ed.DelLen); err != nil {
				return err
			}
			cursor += ed.DelLen
		}
	}
	return nil
}

// oracleEncodeIndelLen writes the single-base flag (MMPGA) and, for longer
// blocks, the tuned length code (§5.1.1: "we reserve one bit in MMPGA to
// indicate whether it is a single-base indel").
func (e *streamEncoder) oracleEncodeIndelLen(l int) error {
	mmpga, mmpa := e.writers[sMMPGA], e.writers[sMMPA]
	before := e.oracleTotalBits()
	if l == 1 {
		mmpga.WriteBit(1)
	} else {
		mmpga.WriteBit(0)
		if err := e.tables[tabIndelLen].EncodeValue(mmpga, mmpa, uint64(l)); err != nil {
			return err
		}
	}
	e.comp.MismatchPos += e.oracleTotalBits() - before
	return nil
}

// TestComponentBitsMatchOracle encodes the same plans with encodeRead and
// with the oracle, and requires the same stream bits and the same
// ComponentBits: short reads, long reads with indel blocks and chimeras,
// reads with N, and unmapped reads; fixed and variable read lengths.
func TestComponentBitsMatchOracle(t *testing.T) {
	type set struct {
		name string
		ref  genome.Seq
		rs   *fastq.ReadSet
	}
	var sets []set
	var err error
	ref, rs := makeShortSet(t, 21, 40000, 400)
	sets = append(sets, set{"short", ref, rs})
	ref, rs = makeLongSet(t, 22, 60000, 25)
	sets = append(sets, set{"long", ref, rs})
	rng := rand.New(rand.NewSource(7))
	ref = genome.Random(rng, 150000)
	p := simulate.DefaultLongProfile()
	p.MeanLen, p.MaxLen, p.ChimeraRate = 1500, 4000, 0.5
	if rs, err = simulate.New(rng, ref).LongReads(40, p); err != nil {
		t.Fatal(err)
	}
	sets = append(sets, set{"chimeric", ref, rs})
	ref, rs = makeShortSet(t, 23, 40000, 300)
	for i := range rs.Records {
		seq := rs.Records[i].Seq
		switch i % 5 {
		case 0:
			seq[len(seq)/3] = genome.BaseN
		case 1:
			// A read from nowhere in the reference stays unmapped.
			for j := range seq {
				seq[j] = byte((i*7 + j*j) % 4)
			}
		case 2:
			rs.Records[i].Seq = seq[:len(seq)-i%40]
			rs.Records[i].Qual = rs.Records[i].Qual[:len(rs.Records[i].Seq)]
		}
	}
	sets = append(sets, set{"n-unmapped-variable", ref, rs})

	wide, err := NewAssociationTable([]uint8{2, 8, 16, 32})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sets {
		t.Run(s.name, func(t *testing.T) {
			opt := DefaultOptions(s.ref)
			m, err := mapper.New(opt.Consensus, opt.Mapper)
			if err != nil {
				t.Fatal(err)
			}
			plans := planReads(s.rs, m, opt)
			// Compress's order: mapped reads by position, so the matching
			// position deltas are never negative; unmapped reads last.
			slices.SortStableFunc(plans, func(a, b readPlan) int {
				if a.aln.Mapped != b.aln.Mapped {
					if a.aln.Mapped {
						return -1
					}
					return 1
				}
				return cmp.Compare(a.sortKey, b.sortKey)
			})
			var mapped, unmapped, chimeric, indels, withN int
			newEnc := func() *streamEncoder {
				e := &streamEncoder{
					cons:     opt.Consensus,
					fixedLen: fixedReadLength(s.rs),
					posWidth: uint(HistIndex(uint64(len(opt.Consensus)))),
				}
				for i := range e.tables {
					e.tables[i] = wide
				}
				for i := range e.writers {
					e.writers[i] = bitio.NewWriter(4096)
				}
				return e
			}
			got, want := newEnc(), newEnc()
			prevGot, prevWant := 0, 0
			for _, p := range plans {
				seq := s.rs.Records[p.idx].Seq
				if err := got.encodeRead(seq, p, &prevGot); err != nil {
					t.Fatal(err)
				}
				if err := want.oracleEncodeRead(seq, p, &prevWant); err != nil {
					t.Fatal(err)
				}
				if p.hasN {
					withN++
				}
				if !p.aln.Mapped {
					unmapped++
					continue
				}
				mapped++
				if len(p.aln.Segments) > 1 {
					chimeric++
				}
				for _, seg := range p.aln.Segments {
					for _, ed := range seg.Edits {
						if ed.Type != genome.Substitution {
							indels++
						}
					}
				}
			}
			t.Logf("%d mapped (%d chimeric, %d indels), %d unmapped, %d with N", mapped, chimeric, indels, unmapped, withN)
			if got.comp != want.comp {
				t.Fatalf("components %+v, oracle %+v", got.comp, want.comp)
			}
			for i := range got.writers {
				if g, w := got.writers[i].Len(), want.writers[i].Len(); g != w {
					t.Fatalf("stream %d: %d bits, oracle %d", i, g, w)
				}
			}
			if got.comp.Total() != got.oracleTotalBits() {
				t.Fatalf("components sum to %d bits, the streams hold %d", got.comp.Total(), got.oracleTotalBits())
			}
		})
	}
}
