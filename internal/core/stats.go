package core

import (
	"fmt"
	"sort"

	"sage/internal/fastq"
	"sage/internal/genome"
	"sage/internal/mapper"
)

// OptLevel identifies the cumulative optimization levels of Fig. 17.
type OptLevel int

const (
	// LevelNO stores raw mismatch information: absolute positions at
	// fixed widths, explicit 2-bit types, 3-bit bases, per-base indel
	// events, per-read flag bits, single best matching position.
	LevelNO OptLevel = iota
	// LevelO1 adds the matching-position optimization (§5.1.3): read
	// reordering, delta encoding, Algorithm 1 width tuning.
	LevelO1
	// LevelO2 adds mismatch-position and count optimizations (§5.1.1):
	// in-read deltas, tuned widths, tuned counts, indel-block encoding.
	LevelO2
	// LevelO3 adds base/type optimizations (§5.1.2): chimeric top-N
	// matching positions and substitution-type inference.
	LevelO3
	// LevelO4 adds corner-case optimization (§5.1.4): the position-0
	// marker replaces per-read flag bits. This is the shipping format.
	LevelO4
	numLevels
)

func (l OptLevel) String() string {
	switch l {
	case LevelNO:
		return "NO"
	case LevelO1:
		return "O1"
	case LevelO2:
		return "O2"
	case LevelO3:
		return "O3"
	case LevelO4:
		return "O4"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// Breakdown is the per-component mismatch-information size at one level.
type Breakdown struct {
	Level      OptLevel
	Components ComponentBits
}

// TotalBits sums the components.
func (b Breakdown) TotalBits() uint64 { return b.Components.Total() }

// ComputeBreakdowns reproduces Fig. 17: the size of the reads' mismatch
// information under each cumulative optimization level. Levels NO–O3 are
// evaluated with exact bit accounting over the alignments; O4 is the real
// encoder's measurement.
func ComputeBreakdowns(rs *fastq.ReadSet, cons genome.Seq, opt Options) ([]Breakdown, error) {
	opt.Consensus = cons
	// Alignments without chimeric splitting (levels NO-O2).
	mcfgNoChim := opt.Mapper
	mcfgNoChim.DisableChimeric = true
	plainAlns, err := mapAll(rs, cons, mcfgNoChim)
	if err != nil {
		return nil, err
	}
	// Alignments with chimeric splitting (level O3).
	chimAlns, err := mapAll(rs, cons, opt.Mapper)
	if err != nil {
		return nil, err
	}
	out := make([]Breakdown, 0, numLevels)
	for lvl := LevelNO; lvl <= LevelO3; lvl++ {
		alns := plainAlns
		if lvl >= LevelO3 {
			alns = chimAlns
		}
		bd, err := modelLevel(rs, cons, alns, lvl)
		if err != nil {
			return nil, err
		}
		out = append(out, bd)
	}
	// O4: the shipping encoder.
	o4opt := opt
	o4opt.IncludeQuality = false
	o4opt.IncludeHeaders = false
	o4opt.EmbedConsensus = false
	enc, err := Compress(rs, o4opt)
	if err != nil {
		return nil, err
	}
	out = append(out, Breakdown{Level: LevelO4, Components: enc.Stats.Components})
	return out, nil
}

func mapAll(rs *fastq.ReadSet, cons genome.Seq, cfg mapper.Config) ([]mapper.Alignment, error) {
	m, err := mapper.New(cons, cfg)
	if err != nil {
		return nil, err
	}
	out := make([]mapper.Alignment, len(rs.Records))
	for i := range rs.Records {
		aln := m.Map(rs.Records[i].Seq)
		if aln.Mapped {
			// The same losslessness validation the encoder applies.
			if got, err := mapper.ReconstructRead(cons, aln, len(rs.Records[i].Seq)); err != nil || !got.Equal(rs.Records[i].Seq) {
				aln = mapper.Alignment{}
			}
		}
		out[i] = aln
	}
	return out, nil
}

// modelLevel computes exact component bit counts for levels NO–O3.
func modelLevel(rs *fastq.ReadSet, cons genome.Seq, alns []mapper.Alignment, lvl OptLevel) (Breakdown, error) {
	tcfg := defaultTuneConfig()
	var comp ComponentBits
	wCons := uint64(HistIndex(uint64(len(cons))))
	maxReadLen := 0
	variableLen := fixedReadLength(rs) == 0
	for i := range rs.Records {
		if l := len(rs.Records[i].Seq); l > maxReadLen {
			maxReadLen = l
		}
	}
	wReadPos := uint64(HistIndex(uint64(maxReadLen)))
	const wCount = 16
	const wLen = 16

	// Matching positions.
	if lvl >= LevelO1 {
		// Reorder + delta + Algorithm 1 (§5.1.3).
		var deltas []uint64
		var positions []int
		for i := range alns {
			if alns[i].Mapped {
				positions = append(positions, alns[i].Segments[0].ConsPos)
			}
		}
		sort.Ints(positions)
		prev := 0
		for _, p := range positions {
			deltas = append(deltas, uint64(p-prev))
			prev = p
		}
		var h Histogram
		for _, d := range deltas {
			h.Add(d)
		}
		tab, err := tuneTable(&h, tcfg)
		if err != nil {
			return Breakdown{}, err
		}
		for _, d := range deltas {
			comp.MatchingPos += uint64(tab.CostBits(d))
		}
	} else {
		for i := range alns {
			if alns[i].Mapped {
				comp.MatchingPos += wCons
			}
		}
	}
	// Chimeric extra segments (O3+) store an absolute position and a
	// segment length each.
	if lvl >= LevelO3 {
		for i := range alns {
			for s := 1; s < len(alns[i].Segments); s++ {
				comp.MatchingPos += wCons
				comp.ReadLen += wLen
				comp.Rev++
			}
		}
	}

	// Per-read fixed fields.
	for i := range alns {
		comp.Rev++ // strand bit
		if variableLen {
			comp.ReadLen += wLen
		}
		if lvl < LevelO4 {
			// Per-read corner flags (replaced by the position-0 marker
			// at O4): contains-N + unmapped indicator.
			comp.Corner += 2
		}
		if !alns[i].Mapped {
			comp.Unmapped += uint64(len(rs.Records[i].Seq)) * 3
		}
	}

	// Mismatch information.
	type event struct {
		pos      int // read-local position
		kind     genome.VariantType
		bases    int // stored bases (sub:1, ins:block, del:0)
		blockLen int
	}
	perRead := make([][]event, len(alns))
	for i := range alns {
		var evs []event
		for _, seg := range alns[i].Segments {
			for _, e := range seg.Edits {
				base := seg.ReadStart // offset into whole read
				switch {
				case lvl >= LevelO2:
					// Block events (§5.1.1 indel-block optimization).
					nb := 0
					if e.Type == genome.Substitution {
						nb = 1
					} else if e.Type == genome.Insertion {
						nb = len(e.Bases)
					}
					evs = append(evs, event{pos: base + e.ReadPos, kind: e.Type, bases: nb, blockLen: e.Len()})
				default:
					// Per-base events: one entry per inserted/deleted
					// base ("no optimization on the raw mismatch
					// information").
					switch e.Type {
					case genome.Substitution:
						evs = append(evs, event{pos: base + e.ReadPos, kind: e.Type, bases: 1, blockLen: 1})
					case genome.Insertion:
						for k := range e.Bases {
							evs = append(evs, event{pos: base + e.ReadPos + k, kind: e.Type, bases: 1, blockLen: 1})
						}
					case genome.Deletion:
						for k := 0; k < e.DelLen; k++ {
							evs = append(evs, event{pos: base + e.ReadPos, kind: e.Type, bases: 0, blockLen: 1})
							_ = k
						}
					}
				}
			}
		}
		perRead[i] = evs
	}

	// Counts.
	if lvl >= LevelO2 {
		var h Histogram
		for i := range alns {
			if alns[i].Mapped {
				h.Add(uint64(len(perRead[i])))
			}
		}
		tab, err := tuneTable(&h, tcfg)
		if err != nil {
			return Breakdown{}, err
		}
		for i := range alns {
			if alns[i].Mapped {
				comp.MismatchCount += uint64(tab.CostBits(uint64(len(perRead[i]))))
			}
		}
	} else {
		for i := range alns {
			if alns[i].Mapped {
				comp.MismatchCount += wCount
			}
		}
	}

	// Positions.
	if lvl >= LevelO2 {
		var h, hIndel Histogram
		for i := range alns {
			prev := 0
			for _, e := range perRead[i] {
				h.Add(uint64(e.pos - prev))
				prev = e.pos
				if e.kind != genome.Substitution && e.blockLen > 1 {
					hIndel.Add(uint64(e.blockLen))
				}
			}
		}
		tab, err := tuneTable(&h, tcfg)
		if err != nil {
			return Breakdown{}, err
		}
		tabIndel, err := tuneTable(&hIndel, tcfg)
		if err != nil {
			return Breakdown{}, err
		}
		for i := range alns {
			prev := 0
			for _, e := range perRead[i] {
				comp.MismatchPos += uint64(tab.CostBits(uint64(e.pos - prev)))
				prev = e.pos
				if e.kind != genome.Substitution {
					comp.MismatchPos++ // single-base flag
					if e.blockLen > 1 {
						comp.MismatchPos += uint64(tabIndel.CostBits(uint64(e.blockLen)))
					}
				}
			}
		}
	} else {
		for i := range alns {
			for range perRead[i] {
				comp.MismatchPos += wReadPos
			}
		}
	}

	// Bases and types.
	for i := range alns {
		hasN := rs.Records[i].Seq.HasN()
		baseBits := uint64(3)
		if lvl >= LevelO3 && !hasN {
			baseBits = 2
		}
		for _, e := range perRead[i] {
			if lvl >= LevelO3 {
				// Substitution-type inference (§5.1.2): subs carry only
				// their base; indels carry a marker base + 1 type bit.
				switch e.kind {
				case genome.Substitution:
					comp.MismatchBases += baseBits
				default:
					comp.MismatchTypes += baseBits + 1
					comp.MismatchBases += uint64(e.bases) * baseBits
				}
			} else {
				comp.MismatchTypes += 2 // explicit type code
				comp.MismatchBases += uint64(e.bases) * 3
			}
		}
	}
	return Breakdown{Level: lvl, Components: comp}, nil
}
