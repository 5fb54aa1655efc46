package mapper

import (
	"fmt"

	"sage/internal/genome"
)

// Edit is one difference between a read (or read segment) and the
// consensus, in read-local coordinates. The SAGe encoder serializes edits
// into the mismatch position / base / type arrays (§5.1.1–5.1.2).
type Edit struct {
	// ReadPos is the 0-based position in the read (segment) where the
	// edit takes effect:
	//   Substitution: the read base at ReadPos differs from consensus.
	//   Insertion:    Bases were inserted starting at ReadPos.
	//   Deletion:     DelLen consensus bases are skipped immediately
	//                 before emitting the read base at ReadPos.
	ReadPos int
	Type    genome.VariantType
	// Bases holds the read bases for substitutions (len 1) and
	// insertions (len = block length); nil for deletions.
	Bases genome.Seq
	// DelLen is the deletion block length; 0 otherwise.
	DelLen int
}

// Len returns the indel block length (1 for substitutions).
func (e Edit) Len() int {
	if e.Type == genome.Deletion {
		return e.DelLen
	}
	if e.Type == genome.Insertion {
		return len(e.Bases)
	}
	return 1
}

// Segment is one contiguously-mapped piece of a read. Non-chimeric reads
// have exactly one segment spanning the whole read; chimeric reads have up
// to MaxChimericSegments (§5.1.2: top-N matching positions, N = 3).
type Segment struct {
	// ReadStart/ReadLen delimit the segment within the read.
	ReadStart, ReadLen int
	// ConsPos is the consensus position where the segment's alignment
	// begins.
	ConsPos int
	// Rev marks a reverse-complement match: the reverse complement of
	// the read segment aligns forward at ConsPos.
	Rev bool
	// Edits lists differences in segment-local coordinates, sorted by
	// ReadPos (the coordinate is relative to ReadStart, after
	// reverse-complementing when Rev is set).
	Edits []Edit
	// Cost is the unit edit cost of the alignment.
	Cost int
}

// Alignment is the mapper's verdict for one read.
type Alignment struct {
	// Mapped is false when no consensus region explains the read; such
	// reads are stored raw (the "Unmapped" stream of Fig. 17).
	Mapped bool
	// Segments is non-empty iff Mapped; segments are sorted by
	// ReadStart and partition [0, readLen).
	Segments []Segment
}

// NumMismatches totals the edit count across segments.
func (a *Alignment) NumMismatches() int {
	n := 0
	for i := range a.Segments {
		n += len(a.Segments[i].Edits)
	}
	return n
}

// appendSegment appends to dst the read segment of segLen bases that
// starts at consPos and differs from the consensus by edits — the
// operation the Read Construction Unit performs in hardware (§5.2.2 ⑪).
func appendSegment(dst, cons genome.Seq, consPos int, segLen int, edits []Edit) (genome.Seq, error) {
	start := len(dst)
	c := consPos
	// copyTo appends consensus bases until the segment is readPos long.
	copyTo := func(readPos int) error {
		n := readPos - (len(dst) - start)
		if n <= 0 {
			return nil
		}
		if c < 0 || c+n > len(cons) {
			return fmt.Errorf("mapper: consensus bases [%d,%d) out of range", c, c+n)
		}
		dst = append(dst, cons[c:c+n]...)
		c += n
		return nil
	}
	for _, e := range edits {
		if err := copyTo(e.ReadPos); err != nil {
			return nil, err
		}
		switch e.Type {
		case genome.Substitution:
			dst = append(dst, e.Bases[0])
			c++
		case genome.Insertion:
			dst = append(dst, e.Bases...)
		case genome.Deletion:
			c += e.DelLen
		}
	}
	if err := copyTo(segLen); err != nil {
		return nil, err
	}
	if len(dst)-start != segLen {
		return nil, fmt.Errorf("mapper: reconstructed %d bases, want %d", len(dst)-start, segLen)
	}
	return dst, nil
}
