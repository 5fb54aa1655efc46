package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sage/internal/bitio"
)

func TestHistIndex(t *testing.T) {
	cases := map[uint64]int{0: 0, 1: 1, 2: 2, 3: 2, 4: 3, 7: 3, 8: 4, 255: 8, 256: 9}
	for v, want := range cases {
		if got := HistIndex(v); got != want {
			t.Errorf("HistIndex(%d)=%d want %d", v, got, want)
		}
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 0, 1, 3, 200} {
		h.Add(v)
	}
	if h.Total() != 5 {
		t.Fatalf("total %d", h.Total())
	}
	if h.MaxBits() != 8 {
		t.Fatalf("maxbits %d", h.MaxBits())
	}
	if h[0] != 2 || h[1] != 1 || h[2] != 1 || h[8] != 1 {
		t.Fatalf("histogram %v", h)
	}
}

func TestAssociationTableValidation(t *testing.T) {
	if _, err := NewAssociationTable(nil); err == nil {
		t.Fatal("empty widths must fail")
	}
	if _, err := NewAssociationTable([]uint8{1, 1}); err == nil {
		t.Fatal("duplicate widths must fail")
	}
	if _, err := NewAssociationTable([]uint8{40}); err == nil {
		t.Fatal("oversize width must fail")
	}
	if _, err := NewAssociationTable(make([]uint8, 9)); err == nil {
		t.Fatal(">8 classes must fail")
	}
}

func TestAssociationTableEncodeDecode(t *testing.T) {
	tab, err := NewAssociationTable([]uint8{2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	guide := bitio.NewWriter(64)
	data := bitio.NewWriter(64)
	vals := []uint64{0, 1, 2, 3, 9, 15, 100, 255}
	for _, v := range vals {
		if err := tab.EncodeValue(guide, data, v); err != nil {
			t.Fatal(err)
		}
	}
	gr := bitio.NewReader(guide.Bytes(), guide.Len())
	dr := bitio.NewReader(data.Bytes(), data.Len())
	for i, want := range vals {
		got, err := tab.DecodeValue(gr, dr)
		if err != nil {
			t.Fatalf("val %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("val %d: got %d want %d", i, got, want)
		}
	}
}

func TestAssociationTableRejectsOverflow(t *testing.T) {
	tab, err := NewAssociationTable([]uint8{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	guide := bitio.NewWriter(8)
	data := bitio.NewWriter(8)
	if err := tab.EncodeValue(guide, data, 255); err == nil {
		t.Fatal("255 must not fit in a 4-bit max table")
	}
}

func TestAssociationTableZeroWidthClass(t *testing.T) {
	tab, err := NewAssociationTable([]uint8{0, 8})
	if err != nil {
		t.Fatal(err)
	}
	guide := bitio.NewWriter(8)
	data := bitio.NewWriter(8)
	for _, v := range []uint64{0, 0, 0, 200} {
		if err := tab.EncodeValue(guide, data, v); err != nil {
			t.Fatal(err)
		}
	}
	// Three zeros cost 1 guide bit each, no data bits.
	if data.Len() != 8 {
		t.Fatalf("data bits %d want 8 (only the 200 value)", data.Len())
	}
	gr := bitio.NewReader(guide.Bytes(), guide.Len())
	dr := bitio.NewReader(data.Bytes(), data.Len())
	for _, want := range []uint64{0, 0, 0, 200} {
		got, err := tab.DecodeValue(gr, dr)
		if err != nil || got != want {
			t.Fatalf("got %d,%v want %d", got, err, want)
		}
	}
}

func TestTuneSingleClass(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Add(5) // bitlen 3
	}
	w, err := tune(&h, defaultTuneConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 1 || w[0] != 3 {
		t.Fatalf("widths %v want [3]", w)
	}
}

func TestTuneSplitsSkewedDistribution(t *testing.T) {
	// 10k small values (2 bits) and 10 large (16 bits): a single class
	// would cost 17 bits each; two classes are clearly better.
	var h Histogram
	for i := 0; i < 10000; i++ {
		h.Add(3)
	}
	for i := 0; i < 10; i++ {
		h.Add(1 << 15)
	}
	w, err := tune(&h, defaultTuneConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(w) < 2 {
		t.Fatalf("widths %v: expected a split", w)
	}
	if w[len(w)-1] != 16 {
		t.Fatalf("last width %d must cover max bitlen 16", w[len(w)-1])
	}
}

func TestTuneEmptyHistogram(t *testing.T) {
	var h Histogram
	w, err := tune(&h, defaultTuneConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(w) == 0 {
		t.Fatal("empty histogram must still yield a usable table")
	}
}

// bruteForceCost computes the optimal partition cost by trying every
// subset of boundaries (reference implementation for optimality checks).
func bruteForceCost(h *Histogram, maxClasses int) int64 {
	maxBits := h.MaxBits()
	var support []int
	for b := 0; b <= maxBits; b++ {
		if h[b] > 0 {
			support = append(support, b)
		}
	}
	if len(support) == 0 {
		return 0
	}
	var pref [maxHistBits + 2]int64
	for b := 0; b <= maxHistBits; b++ {
		pref[b+1] = pref[b] + h[b]
	}
	rangeCount := func(loExcl, hiIncl int) int64 { return pref[hiIncl+1] - pref[loExcl+1] }
	best := int64(math.MaxInt64)
	n := len(support) - 1 // last boundary pinned to maxBits
	for mask := 0; mask < 1<<n; mask++ {
		var bounds []int
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				bounds = append(bounds, support[i])
			}
		}
		bounds = append(bounds, maxBits)
		if len(bounds) > maxClasses {
			continue
		}
		if c := costOf(bounds, rangeCount); c < best {
			best = c
		}
	}
	return best
}

func tunedCost(h *Histogram, widths []uint8) int64 {
	// Contiguous-partition cost with frequency-ranked codes, matching
	// costOf.
	bounds := make([]int, len(widths))
	for i, w := range widths {
		bounds[i] = int(w)
	}
	var pref [maxHistBits + 2]int64
	for b := 0; b <= maxHistBits; b++ {
		pref[b+1] = pref[b] + h[b]
	}
	return costOf(bounds, func(loExcl, hiIncl int) int64 { return pref[hiIncl+1] - pref[loExcl+1] })
}

// Property: with ε=0 (no early exit), Algorithm 1 matches the brute-force
// optimum over all partitions with ≤ 8 classes.
func TestQuickTuneOptimal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var h Histogram
		nBuckets := rng.Intn(10) + 1
		for i := 0; i < nBuckets; i++ {
			b := rng.Intn(17)
			h[b] += int64(rng.Intn(1000) + 1)
		}
		w, err := tune(&h, tuneConfig{epsilon: 0, maxClasses: 8})
		if err != nil {
			return false
		}
		return tunedCost(&h, w) == bruteForceCost(&h, 8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: every value recorded in the histogram is encodable by the
// tuned table, and decoding returns it.
func TestQuickTunedTableRoundtrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vals := make([]uint64, rng.Intn(500)+1)
		var h Histogram
		for i := range vals {
			switch rng.Intn(3) {
			case 0:
				vals[i] = uint64(rng.Intn(4))
			case 1:
				vals[i] = uint64(rng.Intn(256))
			default:
				vals[i] = uint64(rng.Intn(1 << 20))
			}
			h.Add(vals[i])
		}
		tab, err := tuneTable(&h, defaultTuneConfig())
		if err != nil {
			return false
		}
		guide := bitio.NewWriter(1024)
		data := bitio.NewWriter(1024)
		for _, v := range vals {
			if err := tab.EncodeValue(guide, data, v); err != nil {
				return false
			}
		}
		gr := bitio.NewReader(guide.Bytes(), guide.Len())
		dr := bitio.NewReader(data.Bytes(), data.Len())
		for _, want := range vals {
			got, err := tab.DecodeValue(gr, dr)
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTuneConvergenceStopsEarly(t *testing.T) {
	// A two-cluster distribution: after d=2 the improvement is ~0, so a
	// large epsilon must stop the search at a small class count.
	var h Histogram
	for i := 0; i < 100000; i++ {
		h.Add(2)
	}
	for i := 0; i < 100; i++ {
		h.Add(1000)
	}
	w, err := tune(&h, tuneConfig{epsilon: 0.05, maxClasses: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(w) > 3 {
		t.Fatalf("expected early convergence, got %d classes", len(w))
	}
}

func TestCostBitsMatchesEncoding(t *testing.T) {
	tab, err := NewAssociationTable([]uint8{2, 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint64{0, 3, 17, 63} {
		guide := bitio.NewWriter(8)
		data := bitio.NewWriter(8)
		if err := tab.EncodeValue(guide, data, v); err != nil {
			t.Fatal(err)
		}
		if got := int(guide.Len() + data.Len()); got != tab.CostBits(v) {
			t.Fatalf("value %d: CostBits %d, actual %d", v, tab.CostBits(v), got)
		}
	}
}
