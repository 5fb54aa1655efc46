package core

import (
	"fmt"
	"math/rand"
	"testing"

	"sage/internal/bitio"
)

// ablationHist builds a mismatch-position-like histogram (Fig. 7(a) skew).
func ablationHist(seed int64, n int) (*Histogram, []uint64) {
	rng := rand.New(rand.NewSource(seed))
	var h Histogram
	vals := make([]uint64, n)
	for i := range vals {
		switch {
		case rng.Float64() < 0.7:
			vals[i] = uint64(rng.Intn(32))
		case rng.Float64() < 0.9:
			vals[i] = uint64(32 + rng.Intn(992))
		default:
			vals[i] = uint64(1024 + rng.Intn(1<<14))
		}
		h.Add(vals[i])
	}
	return &h, vals
}

// encodedBits measures the true encoded size under a table.
func encodedBits(t *testing.T, tab *AssociationTable, vals []uint64) uint64 {
	t.Helper()
	guide := bitio.NewWriter(len(vals))
	data := bitio.NewWriter(len(vals) * 2)
	for _, v := range vals {
		if err := tab.EncodeValue(guide, data, v); err != nil {
			t.Fatal(err)
		}
	}
	return guide.Len() + data.Len()
}

// TestAblationClassCount is the design-choice ablation DESIGN.md calls
// out: more width classes never hurt the encoded size, and the tuned
// multi-class encoding clearly beats a single fixed width.
func TestAblationClassCount(t *testing.T) {
	h, vals := ablationHist(11, 30000)
	prev := uint64(1 << 62)
	var sizes []uint64
	for d := 1; d <= MaxWidthClasses; d++ {
		tab, err := tuneTable(h, tuneConfig{epsilon: 0, maxClasses: d})
		if err != nil {
			t.Fatal(err)
		}
		bits := encodedBits(t, tab, vals)
		sizes = append(sizes, bits)
		// Optimality over a larger search space cannot be worse.
		if bits > prev+prev/100 {
			t.Fatalf("d=%d: %d bits worse than d-1's %d", d, bits, prev)
		}
		prev = bits
	}
	if sizes[len(sizes)-1]*3 > sizes[0]*2 {
		t.Fatalf("multi-class tuning saved too little: %d -> %d bits", sizes[0], sizes[len(sizes)-1])
	}
}

// TestAblationEpsilon verifies the convergence threshold trades a bounded
// amount of size for a much smaller search.
func TestAblationEpsilon(t *testing.T) {
	h, vals := ablationHist(12, 20000)
	exact, err := tuneTable(h, tuneConfig{epsilon: 0, maxClasses: 8})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := tuneTable(h, tuneConfig{epsilon: 0.05, maxClasses: 8})
	if err != nil {
		t.Fatal(err)
	}
	be := encodedBits(t, exact, vals)
	bl := encodedBits(t, loose, vals)
	if float64(bl) > float64(be)*1.10 {
		t.Fatalf("epsilon=0.05 lost %.1f%% size (limit 10%%)", 100*(float64(bl)/float64(be)-1))
	}
}

// TestAblationGuideCodes verifies frequency-ranked unary codes beat
// fixed-rank assignment (the §5.1.1 "shorter representations to more
// common inputs" optimization).
func TestAblationGuideCodes(t *testing.T) {
	h, vals := ablationHist(13, 20000)
	ranked, err := tuneTable(h, defaultTuneConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Adversarial table: same widths, reversed rank order.
	rev := make([]uint8, len(ranked.Widths))
	for i, w := range ranked.Widths {
		rev[len(rev)-1-i] = w
	}
	worst, err := NewAssociationTable(rev)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked.Widths) > 1 {
		br := encodedBits(t, ranked, vals)
		bw := encodedBits(t, worst, vals)
		if br > bw {
			t.Fatalf("frequency-ranked codes (%d bits) lost to reversed ranking (%d bits)", br, bw)
		}
	}
}

func BenchmarkTune(b *testing.B) {
	h, _ := ablationHist(14, 50000)
	cfg := defaultTuneConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tune(h, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTuneExhaustive(b *testing.B) {
	h, _ := ablationHist(15, 50000)
	cfg := tuneConfig{epsilon: 0, maxClasses: 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tune(h, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationClassCount prints the encoded-size curve across class
// counts so `go test -bench` surfaces the ablation data.
func BenchmarkAblationClassCount(b *testing.B) {
	h, vals := ablationHist(16, 30000)
	for d := 1; d <= MaxWidthClasses; d += 1 {
		d := d
		b.Run(fmt.Sprintf("classes=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tab, err := tuneTable(h, tuneConfig{epsilon: 0, maxClasses: d})
				if err != nil {
					b.Fatal(err)
				}
				guide := bitio.NewWriter(len(vals))
				data := bitio.NewWriter(len(vals) * 2)
				for _, v := range vals {
					if err := tab.EncodeValue(guide, data, v); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(guide.Len()+data.Len())/float64(len(vals)), "bits/value")
			}
		})
	}
}
