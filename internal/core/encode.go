package core

import (
	"cmp"
	"fmt"
	"slices"

	"sage/internal/bitio"
	"sage/internal/fastq"
	"sage/internal/freelist"
	"sage/internal/genome"
	"sage/internal/headers"
	"sage/internal/mapper"
	"sage/internal/pool"
	"sage/internal/qual"
)

// Options parameterizes compression.
type Options struct {
	// Consensus is the sequence reads are encoded against (§2.2): a
	// reference or a read-derived pseudo-genome.
	Consensus genome.Seq
	// EmbedConsensus stores the consensus in the container (required
	// for self-contained decompression; counted in the compression
	// ratio, like Spring).
	EmbedConsensus bool
	// IncludeQuality compresses quality scores losslessly (§5.1.5;
	// optional, host-side decode).
	IncludeQuality bool
	// IncludeHeaders compresses read names.
	IncludeHeaders bool
	// Mapper configures compression-time mismatch finding.
	Mapper mapper.Config
	// SharedMapper, when non-nil, is used instead of building a new
	// mapper (and its k-mer index) over Consensus. Mapper.Map is
	// read-only, so one mapper can serve many concurrent Compress calls
	// — the sharded writer builds one index per container instead of one
	// per shard. The mapper must have been built over the same
	// Consensus.
	SharedMapper *mapper.Mapper
	// Workers bounds mapping parallelism (0 = GOMAXPROCS).
	Workers int
}

// DefaultOptions returns self-contained, fully lossless settings.
func DefaultOptions(cons genome.Seq) Options {
	return Options{
		Consensus:      cons,
		EmbedConsensus: true,
		IncludeQuality: true,
		IncludeHeaders: true,
		Mapper:         mapper.DefaultConfig(),
	}
}

// ComponentBits attributes encoded bits to the categories of Fig. 17.
type ComponentBits struct {
	MatchingPos   uint64
	MismatchPos   uint64
	MismatchCount uint64
	MismatchBases uint64
	MismatchTypes uint64
	ReadLen       uint64
	Rev           uint64
	Corner        uint64 // disambiguation bits + corner payloads ("Contains N")
	Unmapped      uint64 // raw bases of unmapped reads
}

// Total sums all components.
func (c ComponentBits) Total() uint64 {
	return c.MatchingPos + c.MismatchPos + c.MismatchCount + c.MismatchBases +
		c.MismatchTypes + c.ReadLen + c.Rev + c.Corner + c.Unmapped
}

// Stats reports what the encoder measured and produced.
type Stats struct {
	NumReads    int
	NumMapped   int
	NumUnmapped int
	NumChimeric int
	NumCorner   int

	// StreamBits gives the length of each physical stream.
	StreamBits map[string]uint64
	// Components attributes bits to Fig. 17 categories.
	Components ComponentBits

	// Distributions re-measured from the read set (Fig. 7, Fig. 10).
	MatchDeltaHist    Histogram // bits of delta-encoded matching positions
	MismatchDeltaHist Histogram // bits of delta-encoded mismatch positions
	MismatchCountDist []int64   // reads by mismatch count (capped)
	IndelBlockLenDist []int64   // indel blocks by length (capped)

	// Byte sizes of the container and its sections.
	CompressedBytes int
	ConsensusBytes  int
	DNABytes        int // streams + consensus (+ fixed header share)
	QualityBytes    int
	HeaderBytes     int

	// Tables records the tuned widths per array.
	Tables map[string][]uint8
}

// Encoded is a compressed read set.
type Encoded struct {
	Data  []byte
	Stats Stats
	// Order is the storage permutation the codec applied (§5.1.3):
	// the record decoded at position i was rs.Records[Order[i]].
	// Compress-time metadata only — the wire format does not carry it.
	// The sharded writer composes it with an ingest-stage permutation
	// to build format v5's exact original-order recovery.
	Order []int
}

// readPlan is the per-read encoding plan computed in pass 1.
type readPlan struct {
	idx     int // index into rs.Records
	aln     mapper.Alignment
	hasN    bool
	corner  bool // hasN || unmapped
	sortKey int
}

// Compress encodes rs into a SAGe container.
func Compress(rs *fastq.ReadSet, opt Options) (*Encoded, error) {
	if len(opt.Consensus) == 0 {
		return nil, fmt.Errorf("core: a consensus sequence is required")
	}
	if opt.IncludeQuality {
		for i := range rs.Records {
			rec := &rs.Records[i]
			if rec.Qual == nil && len(rec.Seq) > 0 {
				return nil, fmt.Errorf("core: record %d has no quality scores; disable IncludeQuality or provide them", i)
			}
			// The decoder takes score counts from the bases, so a record
			// that disagrees with itself would decode to shifted scores.
			if len(rec.Qual) != len(rec.Seq) {
				return nil, fmt.Errorf("core: record %d: %d bases but %d quality scores", i, len(rec.Seq), len(rec.Qual))
			}
		}
	}
	m := opt.SharedMapper
	if m == nil {
		var err error
		m, err = mapper.New(opt.Consensus, opt.Mapper)
		if err != nil {
			return nil, err
		}
	} else if mc := m.Consensus(); !(len(mc) == len(opt.Consensus) && &mc[0] == &opt.Consensus[0]) && !mc.Equal(opt.Consensus) {
		// The same slice needs no compare: the sharded writer hands every
		// shard the consensus its mapper was built over, and comparing a
		// human-scale one costs several times what compressing the shard does.
		return nil, fmt.Errorf("core: SharedMapper was built over a different consensus")
	}

	// Pass 1: map every read, validate losslessness of each alignment,
	// decide corner status, and gather tuning histograms.
	plans := planReads(rs, m, opt)

	// Reorder by matching position (§5.1.3); unmapped reads go last.
	// Ties keep input order: idx is the last key, so the order is total
	// and an unstable sort gives the stable sort's result.
	slices.SortFunc(plans, func(a, b readPlan) int {
		if a.aln.Mapped != b.aln.Mapped {
			if a.aln.Mapped {
				return -1
			}
			return 1
		}
		if a.aln.Mapped && a.sortKey != b.sortKey {
			return cmp.Compare(a.sortKey, b.sortKey)
		}
		return cmp.Compare(a.idx, b.idx)
	})

	st := Stats{
		NumReads:          len(rs.Records),
		StreamBits:        make(map[string]uint64, 5),
		MismatchCountDist: make([]int64, 65),
		IndelBlockLenDist: make([]int64, 65),
		Tables:            make(map[string][]uint8, numTables),
	}
	var hMatch, hMisPos, hCount, hReadLen, hIndel Histogram
	fixedLen := fixedReadLength(rs)
	prevPos := 0
	for _, p := range plans {
		pos := prevPos
		if p.aln.Mapped {
			pos = p.aln.Segments[0].ConsPos
			st.NumMapped++
			if len(p.aln.Segments) > 1 {
				st.NumChimeric++
			}
		} else {
			st.NumUnmapped++
		}
		if p.corner {
			st.NumCorner++
		}
		hMatch.Add(uint64(pos - prevPos))
		prevPos = pos
		rl := len(rs.Records[p.idx].Seq)
		if fixedLen == 0 {
			hReadLen.Add(uint64(rl))
		}
		for s, seg := range p.aln.Segments {
			if s > 0 {
				hReadLen.Add(uint64(seg.ReadLen))
			}
			count := len(seg.Edits)
			if s == 0 && p.corner {
				count++
				hMisPos.Add(0) // synthetic position-0 mismatch
			}
			hCount.Add(uint64(count))
			bumpCapped(st.MismatchCountDist, count)
			prev := 0
			for _, e := range seg.Edits {
				d := e.ReadPos - prev
				hMisPos.Add(uint64(d))
				prev = e.ReadPos
				if e.Type != genome.Substitution {
					bumpCapped(st.IndelBlockLenDist, e.Len())
					if e.Len() > 1 {
						hIndel.Add(uint64(e.Len()))
					}
				}
			}
		}
		if !p.aln.Mapped {
			// Unmapped reads contribute a synthetic corner record.
			hCount.Add(1)
			hMisPos.Add(0)
			bumpCapped(st.MismatchCountDist, 0)
		}
	}

	st.MatchDeltaHist, st.MismatchDeltaHist = hMatch, hMisPos

	var tables [numTables]*AssociationTable
	for i, h := range []*Histogram{&hMatch, &hMisPos, &hCount, &hReadLen, &hIndel} {
		tab, err := tuneTable(h, defaultTuneConfig())
		if err != nil {
			return nil, fmt.Errorf("core: tuning table %d: %w", i, err)
		}
		tables[i] = tab
	}
	tableNames := []string{"matchDelta", "mismatchDelta", "mismatchCount", "readLen", "indelLen"}
	for i, name := range tableNames {
		st.Tables[name] = tables[i].Widths
	}

	// Pass 2: serialize streams.
	enc := &streamEncoder{
		cons:     opt.Consensus,
		tables:   tables,
		fixedLen: fixedLen,
		posWidth: uint(HistIndex(uint64(len(opt.Consensus)))),
		writers:  [5]*bitio.Writer{bitio.NewWriter(4096), bitio.NewWriter(4096), bitio.NewWriter(4096), bitio.NewWriter(4096), bitio.NewWriter(4096)},
	}
	prevPos = 0
	maxReadLen := 0
	for _, p := range plans {
		rec := &rs.Records[p.idx]
		if len(rec.Seq) > maxReadLen {
			maxReadLen = len(rec.Seq)
		}
		if err := enc.encodeRead(rec.Seq, p, &prevPos); err != nil {
			return nil, fmt.Errorf("core: encoding read %d: %w", p.idx, err)
		}
	}
	st.Components = enc.comp

	// Assemble the container.
	c := &container{}
	c.hdr.numReads = len(rs.Records)
	c.hdr.consensusLen = len(opt.Consensus)
	c.hdr.maxReadLen = maxReadLen
	c.hdr.tables = tables
	if fixedLen > 0 {
		c.hdr.flags |= flagFixedReadLen
		c.hdr.fixedReadLen = fixedLen
	}
	if opt.EmbedConsensus {
		c.hdr.flags |= flagEmbedConsensus
		c.hdr.consensus = opt.Consensus
		if opt.Consensus.HasN() {
			c.hdr.flags |= flagConsensusHasN
			st.ConsensusBytes = (len(opt.Consensus)*3 + 7) / 8
		} else {
			st.ConsensusBytes = (len(opt.Consensus) + 3) / 4
		}
	}
	for i, w := range enc.writers {
		c.streams[i] = stream{bits: w.Len(), data: w.Bytes()}
		st.StreamBits[streamNames[i]] = w.Len()
	}
	if opt.IncludeQuality {
		quals := make([][]byte, len(plans))
		for i, p := range plans {
			quals[i] = rs.Records[p.idx].Qual
		}
		qs, err := qual.Compress(quals)
		if err != nil {
			return nil, err
		}
		c.hdr.flags |= flagQuality
		c.quality = qs
		st.QualityBytes = len(qs)
	}
	if opt.IncludeHeaders {
		hs := make([]string, len(plans))
		for i, p := range plans {
			hs[i] = rs.Records[p.idx].Header
		}
		hb, err := headers.Compress(hs)
		if err != nil {
			return nil, err
		}
		c.hdr.flags |= flagHeaders
		c.headers = hb
		st.HeaderBytes = len(hb)
	}
	data, err := c.marshal()
	if err != nil {
		return nil, err
	}
	st.CompressedBytes = len(data)
	st.DNABytes = len(data) - st.QualityBytes - st.HeaderBytes
	order := make([]int, len(plans))
	for i := range plans {
		order[i] = plans[i].idx
	}
	return &Encoded{Data: data, Stats: st, Order: order}, nil
}

// planReads maps every read and validates each alignment by
// reconstructing the read; any read whose alignment is not provably
// lossless is demoted to the unmapped stream. Workers claim reads in
// ranges on pool.Ranges, the caller among them: a single worker, all
// the sharded writer asks for, starts no goroutine and pays one claim
// per range.
func planReads(rs *fastq.ReadSet, m *mapper.Mapper, opt Options) []readPlan {
	plans := make([]readPlan, len(rs.Records))
	pool.Ranges(len(plans), opt.Workers, func(lo, hi int) {
		rebuilt := rebuilds.Get()
		for i := lo; i < hi; i++ {
			seq := rs.Records[i].Seq
			p := readPlan{idx: i, hasN: seq.HasN()}
			aln := m.Map(seq)
			if aln.Mapped {
				var err error
				*rebuilt, err = mapper.AppendReconstructRead((*rebuilt)[:0], m.Consensus(), aln)
				if err != nil || !rebuilt.Equal(seq) || subMarkerAmbiguous(m.Consensus(), aln) {
					aln = mapper.Alignment{}
				}
			}
			p.aln = aln
			if aln.Mapped {
				p.sortKey = aln.Segments[0].ConsPos
			}
			p.corner = p.hasN || !aln.Mapped
			plans[i] = p
		}
		freelist.PutBuf(rebuilds, rebuilt)
	})
	return plans
}

// rebuilds keeps the buffers planReads reconstructs reads into, one per
// range in flight.
var rebuilds = freelist.New[genome.Seq]()

// subMarkerAmbiguous reports whether any substitution in the alignment
// stores a base equal to the consensus base at its position, which would
// collide with the indel marker of §5.1.2. This can only happen when the
// consensus itself contains N; such reads are stored unmapped instead.
func subMarkerAmbiguous(cons genome.Seq, aln mapper.Alignment) bool {
	for _, seg := range aln.Segments {
		cursor := seg.ConsPos
		out := 0
		for _, e := range seg.Edits {
			cursor += e.ReadPos - out
			out = e.ReadPos
			switch e.Type {
			case genome.Substitution:
				if cursor >= 0 && cursor < len(cons) && cons[cursor] == e.Bases[0] {
					return true
				}
				cursor++
				out++
			case genome.Insertion:
				out += len(e.Bases)
			case genome.Deletion:
				cursor += e.DelLen
			}
		}
	}
	return false
}

// fixedReadLength returns the common read length, or 0 when lengths vary
// (or the set is empty).
func fixedReadLength(rs *fastq.ReadSet) int {
	if len(rs.Records) == 0 {
		return 0
	}
	l := len(rs.Records[0].Seq)
	for i := range rs.Records {
		if len(rs.Records[i].Seq) != l {
			return 0
		}
	}
	return l
}

func bumpCapped(dist []int64, v int) {
	if v >= len(dist) {
		v = len(dist) - 1
	}
	dist[v]++
}

// streamEncoder serializes read records into the five SAGe streams.
type streamEncoder struct {
	cons     genome.Seq
	tables   [numTables]*AssociationTable
	fixedLen int
	posWidth uint // fixed width of absolute consensus positions
	writers  [5]*bitio.Writer
	comp     ComponentBits
}

// encodeRead writes one read record. prevPos carries the matching-position
// cursor across reads for delta encoding. Each field is charged to its
// Fig. 17 component with the bits of the writers it wrote: the length
// difference of those writers, or the width it wrote when that is fixed.
func (e *streamEncoder) encodeRead(seq genome.Seq, p readPlan, prevPos *int) error {
	mpga, mpa := e.writers[sMPGA], e.writers[sMPA]
	baseBits := uint(2)
	if p.hasN {
		baseBits = 3
	}

	// 1. Matching position delta.
	pos := *prevPos
	if p.aln.Mapped {
		pos = p.aln.Segments[0].ConsPos
	}
	before := mpga.Len() + mpa.Len()
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
	e.comp.MatchingPos += mpga.Len() + mpa.Len() - before - revBits

	// 4. Read length.
	if e.fixedLen == 0 {
		if err := e.tables[tabReadLen].EncodeValue(mpga, mpa, uint64(len(seq))); err != nil {
			return err
		}
		e.comp.ReadLen += uint64(e.tables[tabReadLen].CostBits(uint64(len(seq))))
	}
	// 5. Extra segments: strand, absolute position, length.
	for s := 1; s < len(segs); s++ {
		mpga.WriteBool(segs[s].Rev)
		revBits++
		lenBefore := mpga.Len() + mpa.Len()
		if err := e.tables[tabReadLen].EncodeValue(mpga, mpa, uint64(segs[s].ReadLen)); err != nil {
			return err
		}
		e.comp.ReadLen += mpga.Len() + mpa.Len() - lenBefore
		mpa.WriteBits(uint64(segs[s].ConsPos), e.posWidth)
		e.comp.MatchingPos += uint64(e.posWidth)
	}
	e.comp.Rev += revBits

	// 6+7. Per-segment mismatch records.
	if !p.aln.Mapped {
		return e.encodeUnmapped(seq, p, baseBits)
	}
	for s, seg := range segs {
		if err := e.encodeSegment(seq, p, s, seg, baseBits); err != nil {
			return err
		}
	}
	return nil
}

// encodeUnmapped writes the synthetic corner record carrying the raw read.
func (e *streamEncoder) encodeUnmapped(seq genome.Seq, p readPlan, baseBits uint) error {
	mmpga, mmpa := e.writers[sMMPGA], e.writers[sMMPA]
	mbta := e.writers[sMBTA]
	before := mmpga.Len()
	if err := e.tables[tabMismatchCount].EncodeValue(mmpga, mmpga, 1); err != nil {
		return err
	}
	e.comp.MismatchCount += mmpga.Len() - before
	before = mmpga.Len() + mmpa.Len()
	if err := e.tables[tabMismatchDelta].EncodeValue(mmpga, mmpa, 0); err != nil {
		return err
	}
	e.comp.MismatchPos += mmpga.Len() + mmpa.Len() - before
	mbta.WriteBit(0)       // corner, not a genuine position-0 mismatch
	mbta.WriteBool(p.hasN) // payload: alphabet flag
	mbta.WriteBit(1)       // payload: unmapped
	e.comp.Corner += 3
	for _, b := range seq {
		mbta.WriteBits(uint64(b), baseBits)
	}
	e.comp.Unmapped += uint64(len(seq)) * uint64(baseBits)
	return nil
}

// encodeSegment writes one segment's mismatch count, positions, bases and
// types, simulating the Read Construction Unit's consensus cursor so the
// substitution-inference markers (§5.1.2) are exactly reproducible.
func (e *streamEncoder) encodeSegment(seq genome.Seq, p readPlan, s int, seg mapper.Segment, baseBits uint) error {
	mmpga, mmpa := e.writers[sMMPGA], e.writers[sMMPA]
	mbta := e.writers[sMBTA]

	synthetic := s == 0 && p.corner
	count := len(seg.Edits)
	if synthetic {
		count++
	}
	before := mmpga.Len()
	if err := e.tables[tabMismatchCount].EncodeValue(mmpga, mmpga, uint64(count)); err != nil {
		return err
	}
	e.comp.MismatchCount += mmpga.Len() - before

	if synthetic {
		before = mmpga.Len() + mmpa.Len()
		if err := e.tables[tabMismatchDelta].EncodeValue(mmpga, mmpa, 0); err != nil {
			return err
		}
		e.comp.MismatchPos += mmpga.Len() + mmpa.Len() - before
		mbta.WriteBit(0)       // corner record
		mbta.WriteBool(p.hasN) // payload: alphabet flag
		mbta.WriteBit(0)       // payload: mapped
		e.comp.Corner += 3
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
		before = mmpga.Len() + mmpa.Len()
		if err := e.tables[tabMismatchDelta].EncodeValue(mmpga, mmpa, uint64(d)); err != nil {
			return err
		}
		e.comp.MismatchPos += mmpga.Len() + mmpa.Len() - before

		if s == 0 && j == 0 && !synthetic && d == 0 {
			// Disambiguate a genuine position-0 first mismatch from a
			// corner record (§5.1.4).
			mbta.WriteBit(1)
			e.comp.Corner++
		}

		consBase := e.consBaseAt(cursor)
		switch ed.Type {
		case genome.Substitution:
			if ed.Bases[0] == consBase {
				return fmt.Errorf("core: substitution marker collides with consensus at %d", cursor)
			}
			mbta.WriteBits(uint64(ed.Bases[0]), baseBits)
			e.comp.MismatchBases += uint64(baseBits)
			cursor++
			out++
		case genome.Insertion:
			mbta.WriteBits(uint64(consBase), baseBits)
			mbta.WriteBit(1) // insertion
			e.comp.MismatchTypes += uint64(baseBits) + 1
			if err := e.encodeIndelLen(len(ed.Bases)); err != nil {
				return err
			}
			for _, b := range ed.Bases {
				mbta.WriteBits(uint64(b), baseBits)
			}
			e.comp.MismatchBases += uint64(len(ed.Bases)) * uint64(baseBits)
			out += len(ed.Bases)
		case genome.Deletion:
			mbta.WriteBits(uint64(consBase), baseBits)
			mbta.WriteBit(0) // deletion
			e.comp.MismatchTypes += uint64(baseBits) + 1
			if err := e.encodeIndelLen(ed.DelLen); err != nil {
				return err
			}
			cursor += ed.DelLen
		}
	}
	return nil
}

// encodeIndelLen writes the single-base flag (MMPGA) and, for longer
// blocks, the tuned length code (§5.1.1: "we reserve one bit in MMPGA to
// indicate whether it is a single-base indel").
func (e *streamEncoder) encodeIndelLen(l int) error {
	mmpga, mmpa := e.writers[sMMPGA], e.writers[sMMPA]
	before := mmpga.Len() + mmpa.Len()
	if l == 1 {
		mmpga.WriteBit(1)
	} else {
		mmpga.WriteBit(0)
		if err := e.tables[tabIndelLen].EncodeValue(mmpga, mmpa, uint64(l)); err != nil {
			return err
		}
	}
	e.comp.MismatchPos += mmpga.Len() + mmpa.Len() - before
	return nil
}

// consBaseAt reads the consensus with end clamping (insertions at the very
// end of the consensus compare against its last base on both sides of the
// codec).
func (e *streamEncoder) consBaseAt(cursor int) byte {
	if cursor >= len(e.cons) {
		cursor = len(e.cons) - 1
	}
	if cursor < 0 {
		cursor = 0
	}
	return e.cons[cursor]
}
