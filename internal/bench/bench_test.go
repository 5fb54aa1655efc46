package bench

import (
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The shared suite keeps dataset generation + measurement out of each
// test; tests assert the DESIGN.md shape criteria on its outputs.
var (
	suiteOnce sync.Once
	suite     *Suite
)

func testSuite(t *testing.T) *Suite {
	t.Helper()
	if testing.Short() {
		t.Skip("bench suite is slow")
	}
	suiteOnce.Do(func() {
		suite = NewSuite(0.25)
	})
	return suite
}

func cell(t *testing.T, tb *Table, rowKey []string, col string) float64 {
	t.Helper()
	ci := -1
	for i, h := range tb.Header {
		if h == col {
			ci = i
		}
	}
	if ci < 0 {
		t.Fatalf("%s: no column %q in %v", tb.ID, col, tb.Header)
	}
	for _, row := range tb.Rows {
		match := true
		for i, k := range rowKey {
			if i >= len(row) || row[i] != k {
				match = false
				break
			}
		}
		if match {
			v, err := strconv.ParseFloat(strings.TrimSuffix(row[ci], "%"), 64)
			if err != nil {
				t.Fatalf("%s: cell %v/%s = %q not numeric", tb.ID, rowKey, col, row[ci])
			}
			return v
		}
	}
	t.Fatalf("%s: no row %v", tb.ID, rowKey)
	return 0
}

func TestDatasetsGenerate(t *testing.T) {
	for _, d := range StandardDatasets(0.2) {
		g, err := d.Generate()
		if err != nil {
			t.Fatalf("%s: %v", d.Label, err)
		}
		if len(g.Reads.Records) < 8 {
			t.Fatalf("%s: only %d reads", d.Label, len(g.Reads.Records))
		}
		if g.Long != d.Long {
			t.Fatalf("%s: long flag mismatch", d.Label)
		}
	}
}

func TestMeasurementRatShape(t *testing.T) {
	s := testSuite(t)
	ms, err := s.allMeasurements()
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]*Measurement{}
	for _, m := range ms {
		byLabel[m.Gen.Label] = m
	}
	// Table 2 shape: genomic compressors beat pigz on DNA everywhere;
	// RS2 is the most compressible; RS4 the least (among genomic).
	for l, m := range byLabel {
		if m.Spring.DNARatio < m.Pigz.DNARatio*1.5 {
			t.Errorf("%s: spring DNA ratio %.1f not clearly above pigz %.1f", l, m.Spring.DNARatio, m.Pigz.DNARatio)
		}
		if m.SAGe.DNARatio < m.Pigz.DNARatio*1.5 {
			t.Errorf("%s: sage DNA ratio %.1f not clearly above pigz %.1f", l, m.SAGe.DNARatio, m.Pigz.DNARatio)
		}
		// SAGe within ~25% of the Spring-like baseline (paper: 4.6%).
		if m.SAGe.DNARatio < m.Spring.DNARatio*0.72 {
			t.Errorf("%s: sage DNA ratio %.1f too far below spring %.1f", l, m.SAGe.DNARatio, m.Spring.DNARatio)
		}
		// Quality codec is shared: ratios must match exactly.
		if m.SAGe.QualRatio != m.Spring.QualRatio {
			t.Errorf("%s: quality ratios differ: %.2f vs %.2f", l, m.SAGe.QualRatio, m.Spring.QualRatio)
		}
	}
	if byLabel["RS2"].SAGe.DNARatio <= byLabel["RS3"].SAGe.DNARatio {
		t.Error("RS2 (deep, low-diversity) must compress better than RS3 (shallow, divergent)")
	}
	if byLabel["RS2"].SAGe.DNARatio <= byLabel["RS4"].SAGe.DNARatio {
		t.Error("short accurate reads must compress better than noisy long reads")
	}
}

func TestFig1LostBenefit(t *testing.T) {
	s := testSuite(t)
	tb, err := s.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	base := cell(t, tb, []string{"Baseline (sw analysis, Spring prep)"}, "kReads/s")
	acc := cell(t, tb, []string{"Acc. Analysis (GEM, Spring prep)"}, "kReads/s")
	ideal := cell(t, tb, []string{"Acc. Analysis w/ Ideal Prep."}, "kReads/s")
	// Shape: acceleration helps, but prep caps it far below ideal.
	if acc < base*2 {
		t.Errorf("accelerated analysis %.0f should beat baseline %.0f", acc, base)
	}
	if ideal < acc*5 {
		t.Errorf("ideal prep %.0f should dwarf prep-bound %.0f (lost benefit)", ideal, acc)
	}
}

func TestFig4PrepBottleneck(t *testing.T) {
	s := testSuite(t)
	tb, err := s.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	pigz := cell(t, tb, []string{"GMean"}, "pigz")
	ideal := cell(t, tb, []string{"GMean"}, "Ideal")
	if pigz >= 1 {
		t.Errorf("pigz normalized throughput %.2f must be below (N)Spr's 1.0", pigz)
	}
	// Paper: 4.0x average ideal-over-Spring.
	if ideal < 2.5 || ideal > 7 {
		t.Errorf("ideal GMean %.2f outside the paper band (~4.0)", ideal)
	}
}

func TestFig13Shape(t *testing.T) {
	s := testSuite(t)
	tb, err := s.Fig13()
	if err != nil {
		t.Fatal(err)
	}
	g := func(col string) float64 { return cell(t, tb, []string{"pcie", "GMean"}, col) }
	sage := g("SAGe")
	if z := g("0TimeDec"); sage < z*0.9 {
		t.Errorf("SAGe %.2f must match 0TimeDec %.2f (paper: equal)", sage, z)
	}
	if p := g("pigz"); sage/p < 6 {
		t.Errorf("SAGe/pigz = %.1f; paper says 12.3x", sage/p)
	}
	if ac := g("(N)SprAC"); sage/ac < 2 {
		t.Errorf("SAGe/(N)SprAC = %.1f; paper says 3.0x", sage/ac)
	}
	if sw := g("SAGeSW"); !(sw > 1.3 && sw < sage) {
		t.Errorf("SAGeSW %.2f must sit between (N)Spr and SAGe %.2f", sw, sage)
	}
	if isf := g("SAGeSSD+ISF"); isf <= sage {
		t.Errorf("SAGeSSD+ISF %.2f should exceed SAGe %.2f on PCIe average", isf, sage)
	}
	// SATA compresses SAGeSSD's advantage (decompressed data over the
	// narrow link).
	pcieSSD := cell(t, tb, []string{"pcie", "GMean"}, "SAGeSSD")
	sataSSD := cell(t, tb, []string{"sata", "GMean"}, "SAGeSSD")
	if sataSSD >= pcieSSD {
		t.Errorf("SAGeSSD on SATA (%.2f) must trail PCIe (%.2f)", sataSSD, pcieSSD)
	}
}

func TestFig14PrepSpeedups(t *testing.T) {
	s := testSuite(t)
	tb, err := s.Fig14()
	if err != nil {
		t.Fatal(err)
	}
	spr := cell(t, tb, []string{"GMean"}, "(N)Spr")
	ac := cell(t, tb, []string{"GMean"}, "(N)SprAC")
	sage := cell(t, tb, []string{"GMean"}, "SAGe")
	if !(spr > 1 && ac > spr && sage > ac*3) {
		t.Errorf("prep speedups out of order: spr=%.1f ac=%.1f sage=%.1f", spr, ac, sage)
	}
}

func TestFig15MultiSSD(t *testing.T) {
	s := testSuite(t)
	tb, err := s.Fig15()
	if err != nil {
		t.Fatal(err)
	}
	// SAGe keeps its speedup with more SSDs; RS2's ISF scales.
	one := cell(t, tb, []string{"RS2", "1x"}, "SAGeSSD+ISF")
	four := cell(t, tb, []string{"RS2", "4x"}, "SAGeSSD+ISF")
	if four < one*1.5 {
		t.Errorf("RS2 ISF should scale with SSDs: 1x=%.1f 4x=%.1f", one, four)
	}
	s1 := cell(t, tb, []string{"RS1", "1x"}, "SAGe")
	s4 := cell(t, tb, []string{"RS1", "4x"}, "SAGe")
	if s4 < s1*0.9 {
		t.Errorf("SAGe must not lose speedup with more SSDs: %.2f -> %.2f", s1, s4)
	}
}

func TestFig16Energy(t *testing.T) {
	s := testSuite(t)
	tb, err := s.Fig16()
	if err != nil {
		t.Fatal(err)
	}
	pigz := cell(t, tb, []string{"GMean"}, "pigz")
	spr := cell(t, tb, []string{"GMean"}, "(N)Spr")
	sw := cell(t, tb, []string{"GMean"}, "SAGeSW")
	sage := cell(t, tb, []string{"GMean"}, "SAGe")
	if !(pigz < spr && spr < 1 && 1 < sw && sw < sage) {
		t.Errorf("energy ordering broken: pigz=%.2f spr=%.2f sw=%.2f sage=%.2f", pigz, spr, sw, sage)
	}
}

func TestFig7Properties(t *testing.T) {
	s := testSuite(t)
	tb, err := s.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	// P2: most short reads have zero mismatches.
	zero := cell(t, tb, []string{"(b) RS2 mismatch count", "0"}, "value")
	if zero < 40 {
		t.Errorf("only %.0f%% of short reads mismatch-free; expected a majority", zero)
	}
	// P3: most indel blocks are single-base...
	single := cell(t, tb, []string{"(c) RS4 indel block len CDF", "1"}, "value")
	if single < 50 {
		t.Errorf("single-base blocks %.0f%%; expected a majority", single)
	}
	// ...but multi-base blocks hold a large share of the bases.
	basesSingle := cell(t, tb, []string{"(d) RS4 indel bases CDF", "1"}, "value")
	if basesSingle > 70 {
		t.Errorf("single-base blocks hold %.0f%% of indel bases; the tail should matter", basesSingle)
	}
}

func TestFig10Skew(t *testing.T) {
	s := testSuite(t)
	tb, err := s.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	// Property 6: the mass sits at small bit counts.
	small := 0.0
	for b := 0; b <= 6; b++ {
		small += cell(t, tb, []string{strconv.Itoa(b)}, "% of matching positions")
	}
	if small < 80 {
		t.Errorf("only %.0f%% of matching-position deltas need <=6 bits", small)
	}
}

func TestFig17Monotone(t *testing.T) {
	s := testSuite(t)
	tb, err := s.Fig17()
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range []string{"RS2", "RS4"} {
		prev := 10.0
		for _, lvl := range []string{"NO", "O1", "O2", "O3", "O4"} {
			v := cell(t, tb, []string{set, lvl}, "total")
			if v > prev*1.1 {
				t.Errorf("%s %s total %.2f above previous %.2f", set, lvl, v, prev)
			}
			prev = v
		}
		final := cell(t, tb, []string{set, "O4"}, "total")
		if final > 0.7 {
			t.Errorf("%s O4 total %.2f; optimizations should at least halve NO", set, final)
		}
	}
	// Short reads: O1 shrinks matching positions.
	no := cell(t, tb, []string{"RS2", "NO"}, "matchPos")
	o1 := cell(t, tb, []string{"RS2", "O1"}, "matchPos")
	if o1 >= no {
		t.Errorf("O1 matchPos %.2f must shrink vs NO %.2f", o1, no)
	}
}

// Fig. 18 splits each tool's compression time into mismatch finding and
// encoding. It used to assert the paper's shape — pigz faster than the
// genomic compressors, mapping more than half of SAGe's time — which held
// only while the mapper was an int32 DP; with the bit-parallel mapper
// SAGe compresses short reads faster than pigz and mapping is 25–55 % of
// its time. What remains to check is that the split is reported and adds
// up.
func TestFig18SplitsCompressionTime(t *testing.T) {
	s := testSuite(t)
	tb, err := s.Fig18()
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range []string{"RS1", "RS2", "RS3", "RS4", "RS5"} {
		slowest := 0.0
		for _, tool := range []string{"pigz", "spring", "sage"} {
			find := cell(t, tb, []string{set, tool}, "find-mismatches")
			enc := cell(t, tb, []string{set, tool}, "encode")
			total := cell(t, tb, []string{set, tool}, "total")
			if d := find + enc - total; d < -0.016 || d > 0.016 {
				t.Errorf("%s %s: find %.2f + encode %.2f != total %.2f", set, tool, find, enc, total)
			}
			if (tool == "pigz") != (find == 0) {
				t.Errorf("%s %s: find-mismatches %.2f; only the genomic compressors map", set, tool, find)
			}
			slowest = max(slowest, total)
		}
		if slowest != 1 {
			t.Errorf("%s: slowest tool reads %.2f, want 1.00", set, slowest)
		}
	}
	if share := tb.Metrics["fig18_sage_find_share_gmean"]; share <= 0 || share >= 1 {
		t.Errorf("sage find share %.3f outside (0,1)", share)
	}
}

func TestTable1Note(t *testing.T) {
	s := NewSuite(0.2) // no measurement needed
	tb, err := s.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("table 1 rows: %d", len(tb.Rows))
	}
}

func TestRunAndIDs(t *testing.T) {
	s := testSuite(t)
	if _, err := s.Run("nope"); err == nil {
		t.Fatal("unknown experiment must error")
	}
	ids := s.IDs()
	if len(ids) != 16 {
		t.Fatalf("expected 16 experiments, got %d", len(ids))
	}
	tb, err := s.Run("tab1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tb.Render(), "Scan Unit") {
		t.Fatal("render missing content")
	}
}

func TestEndToEndBottlenecks(t *testing.T) {
	s := testSuite(t)
	m, err := s.Measurement("RS2")
	if err != nil {
		t.Fatal(err)
	}
	plat := DefaultPlatform()
	spring, err := EndToEnd(CfgSpring, m, plat)
	if err != nil {
		t.Fatal(err)
	}
	if spring.BottleneckName() != "prep" {
		t.Errorf("(N)Spr bottleneck %q; expected prep", spring.BottleneckName())
	}
	sage, err := EndToEnd(CfgSAGe, m, plat)
	if err != nil {
		t.Fatal(err)
	}
	if sage.BottleneckName() == "prep" {
		t.Error("SAGe must not be prep-bound")
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{1, 4}); g < 1.99 || g > 2.01 {
		t.Fatalf("geomean %v", g)
	}
	if geomean(nil) != 0 || geomean([]float64{0, 2}) != 0 {
		t.Fatal("degenerate geomeans must be 0")
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{ID: "x", Title: "t", Header: []string{"a", "bb"},
		Rows: [][]string{{"1", "2"}}, Notes: []string{"n"}}
	out := tb.Render()
	for _, want := range []string{"== x: t ==", "a", "bb", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
