package reorder

import (
	"bytes"
	"runtime"
	"strconv"
	"testing"

	"sage/internal/fastq"
	"sage/internal/genome"
)

// FuzzRestorer drives a Restorer with an arbitrary AddText order, budget
// and record shapes, optionally repeating one index, dropping one record
// or moving one index far past the end. The invariants: WriteTo writes
// exactly the text of orig[0..m) when the m indices added are 0..m−1,
// and otherwise fails; whatever it writes before failing is in place;
// and a restore allocates in proportion to the records it holds, never
// to the indices they claim. Records with a nil and an empty quality
// render to the same text, so the text cannot tell them apart and
// neither does this check.
func FuzzRestorer(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6}, []byte{10, 20, 0, 70, 130, 5, 200, 63}, uint16(0), uint8(0), uint16(0))
	f.Add([]byte{7, 7, 7}, []byte{40, 41, 42, 43, 44, 45, 46, 47, 48, 49}, uint16(1), uint8(0), uint16(0))
	f.Add([]byte{2, 9, 4}, bytes.Repeat([]byte{150}, 64), uint16(300), uint8(1), uint16(0x0305))
	f.Add([]byte{5}, bytes.Repeat([]byte{100}, 40), uint16(500), uint8(2), uint16(17))
	f.Add([]byte{5}, bytes.Repeat([]byte{100}, 40), uint16(0), uint8(3), uint16(0x4009))

	f.Fuzz(func(t *testing.T, order, lens []byte, budget uint16, inject uint8, at uint16) {
		n := min(len(lens), 512)
		orig := make([]fastq.Record, n)
		size := 0
		for i := range orig {
			l := int(lens[i] & 63)
			seq := make(genome.Seq, l)
			for j := range seq {
				seq[j] = byte((i + j) % 5)
			}
			orig[i] = fastq.Record{Header: strconv.Itoa(i), Seq: seq}
			switch lens[i] >> 6 {
			case 1:
				orig[i].Qual = []byte{}
			case 2, 3:
				orig[i].Qual = bytes.Repeat([]byte{byte(i)}, l)
			}
			size += 2*l + len(orig[i].Header)
		}
		// The Add order: a Fisher–Yates shuffle driven by order's bytes.
		perm := make([]int64, n)
		for i := range perm {
			perm[i] = int64(i)
		}
		for i := n - 1; i > 0 && len(order) > 0; i-- {
			j := int(order[i%len(order)]) % (i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		texts, want := render(orig)
		recs := make([][]byte, n)
		for i, p := range perm {
			recs[i] = texts[p]
		}
		if n >= 2 {
			a := int(at) % n
			switch inject % 4 {
			case 1: // the record at a claims another's index
				perm[a] = perm[(a+1+int(at>>8)%(n-1))%n]
			case 2: // the record at a never arrives
				perm = append(perm[:a:a], perm[a+1:]...)
				recs = append(recs[:a:a], recs[a+1:]...)
			case 3: // the record at a claims an index far past the end
				perm[a] = int64(n) + int64(at)<<32
			}
		}
		seen := make([]bool, len(perm))
		valid := true
		for _, p := range perm {
			if p >= int64(len(perm)) || seen[p] {
				valid = false
				break
			}
			seen[p] = true
		}
		if !valid {
			want = nil
		} else if len(perm) < n {
			want = bytes.Join(texts[:len(perm)], nil)
		}

		r := NewRestorer(SortConfig{MemBudget: int64(budget), TmpDir: t.TempDir()})
		defer r.Close()
		var out bytes.Buffer
		out.Grow(size + 8*n)
		// WriteTo's buffered writer is a fixed cost of every restore.
		const writeBuf = 1 << 16
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var err error
		for i, p := range perm {
			if err = r.AddText(p, recs[i]); err != nil {
				t.Fatalf("AddText(%d): %v", p, err)
			}
		}
		_, err = r.WriteTo(&out)
		runtime.ReadMemStats(&after)
		if grew, ceiling := after.TotalAlloc-before.TotalAlloc, uint64(8*size+512*n+64<<10+writeBuf); grew > ceiling {
			t.Fatalf("%d bytes allocated restoring %d records of %d bytes (ceiling %d)", grew, n, size, ceiling)
		}
		switch {
		case valid && err != nil:
			t.Fatalf("indices 0..%d rejected: %v", len(perm)-1, err)
		case valid && !bytes.Equal(out.Bytes(), want):
			t.Fatalf("wrote %q, want %q", out.Bytes(), want)
		case !valid && err == nil:
			t.Fatalf("indices %v accepted", perm)
		case !valid && !bytes.HasPrefix(bytes.Join(texts, nil), out.Bytes()):
			t.Fatalf("wrote %q before failing", out.Bytes())
		}
	})
}
