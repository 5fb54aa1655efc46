package bench

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"sage/internal/accel"
	"sage/internal/core"
	"sage/internal/hw"
	"sage/internal/ssd"
)

// metricSlug turns a display name like "(N)SprAC" or "SAGeSSD+ISF"
// into a metric-key fragment: lowercase alphanumerics with runs of
// everything else collapsed to single underscores.
func metricSlug(name string) string {
	var b strings.Builder
	us := false
	for _, r := range strings.ToLower(name) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			if us && b.Len() > 0 {
				b.WriteByte('_')
			}
			us = false
			b.WriteRune(r)
		default:
			us = true
		}
	}
	return b.String()
}

// Suite materializes datasets lazily and runs every experiment.
type Suite struct {
	Scale float64

	mu   sync.Mutex
	sets []Dataset
	meas map[string]*Measurement
}

// NewSuite builds a suite at the given dataset scale (1.0 ≈ a few MB of
// FASTQ per read set).
func NewSuite(scale float64) *Suite {
	return &Suite{Scale: scale, meas: make(map[string]*Measurement)}
}

func (s *Suite) datasets() []Dataset {
	if s.sets == nil {
		s.sets = StandardDatasets(s.Scale)
	}
	return s.sets
}

// Measurement returns (generating and measuring on first use) the
// measurement for a dataset label.
func (s *Suite) Measurement(label string) (*Measurement, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m, ok := s.meas[label]; ok {
		return m, nil
	}
	for _, d := range s.datasets() {
		if d.Label != label {
			continue
		}
		g, err := d.Generate()
		if err != nil {
			return nil, err
		}
		m, err := Measure(g)
		if err != nil {
			return nil, err
		}
		s.meas[label] = m
		return m, nil
	}
	return nil, fmt.Errorf("bench: unknown dataset %q", label)
}

func (s *Suite) allMeasurements() ([]*Measurement, error) {
	var out []*Measurement
	for _, d := range s.datasets() {
		m, err := s.Measurement(d.Label)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Fig. 1: the data preparation bottleneck timeline.
// ---------------------------------------------------------------------

// Fig1 compares (i) software analysis + pigz prep, (ii) accelerated
// analysis + pigz prep, (iii) accelerated analysis + ideal prep on the
// RS2-class read set.
func (s *Suite) Fig1() (*Table, error) {
	m, err := s.Measurement("RS2")
	if err != nil {
		return nil, err
	}
	type row struct {
		name string
		cfg  SystemConfig
		mapr accel.Mapper
	}
	rows := []row{
		{"Baseline (sw analysis, Spring prep)", CfgSpring, accel.SoftwareMapper()},
		{"Acc. Analysis (GEM, Spring prep)", CfgSpring, accel.GEM()},
		{"Acc. Analysis w/ Ideal Prep.", Cfg0TimeDec, accel.GEM()},
	}
	t := &Table{
		ID:     "fig1",
		Title:  "Effect of data preparation on end-to-end analysis",
		Header: []string{"configuration", "total", "prep-busy", "analysis-busy", "bottleneck", "kReads/s"},
	}
	var accPrep, accIdeal float64
	for _, r := range rows {
		plat := DefaultPlatform()
		plat.Mapper = r.mapr
		res, err := EndToEnd(r.cfg, m, plat)
		if err != nil {
			return nil, err
		}
		tput := res.Throughput(int64(float64(len(m.Gen.Reads.Records))*plat.VirtualScale)) / 1e3
		switch r.name {
		case rows[1].name:
			accPrep = tput
		case rows[2].name:
			accIdeal = tput
		}
		t.Rows = append(t.Rows, []string{
			r.name, res.Total.String(),
			res.Busy[2].String(), res.Busy[3].String(),
			res.BottleneckName(), f1(tput),
		})
	}
	if accPrep > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"lost benefit: accelerated analysis achieves %.1f%% of its ideal-prep throughput when prep uses the software genomic decompressor",
			100*accPrep/accIdeal))
	}
	t.Metric("fig1_acc_prep_kreads_s", accPrep)
	t.Metric("fig1_ideal_prep_kreads_s", accIdeal)
	t.Metric("fig1_realized_pct_of_ideal", 100*accPrep/accIdeal)
	return t, nil
}

// ---------------------------------------------------------------------
// Fig. 4: end-to-end throughput, prep bottleneck across read sets.
// ---------------------------------------------------------------------

// Fig4 reports end-to-end throughput of pigz/(N)Spr/Ideal with GEM,
// normalized to (N)Spr.
func (s *Suite) Fig4() (*Table, error) {
	ms, err := s.allMeasurements()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig4",
		Title:  "End-to-end throughput normalized to (N)Spr (GEM analysis)",
		Header: []string{"read set", "pigz", "(N)Spr", "Ideal"},
	}
	var gp, gi []float64
	for _, m := range ms {
		plat := DefaultPlatform()
		base, err := EndToEnd(CfgSpring, m, plat)
		if err != nil {
			return nil, err
		}
		pz, err := EndToEnd(CfgPigz, m, plat)
		if err != nil {
			return nil, err
		}
		id, err := EndToEnd(Cfg0TimeDec, m, plat)
		if err != nil {
			return nil, err
		}
		np := base.Total.Seconds() / pz.Total.Seconds()
		ni := base.Total.Seconds() / id.Total.Seconds()
		gp = append(gp, np)
		gi = append(gi, ni)
		t.Rows = append(t.Rows, []string{m.Gen.Label, f2(np), "1.00", f2(ni)})
	}
	t.Rows = append(t.Rows, []string{"GMean", f2(geomean(gp)), "1.00", f2(geomean(gi))})
	t.Notes = append(t.Notes, "paper: eliminating prep gives 12.3x over pigz and 4.0x over (N)Spr on average")
	t.Metric("fig4_pigz_vs_spring_gmean", geomean(gp))
	t.Metric("fig4_ideal_vs_spring_gmean", geomean(gi))
	return t, nil
}

// ---------------------------------------------------------------------
// Fig. 7: data properties driving SAGe's encodings.
// ---------------------------------------------------------------------

// Fig7 re-measures the four distributions of Fig. 7 from the simulated
// data: (a) bits of delta-encoded mismatch positions (RS4), (b) mismatch
// counts per read (RS2), (c) indel block length CDF (RS4), (d) bases in
// indel blocks CDF (RS4).
func (s *Suite) Fig7() (*Table, error) {
	long, err := s.Measurement("RS4")
	if err != nil {
		return nil, err
	}
	short, err := s.Measurement("RS2")
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig7",
		Title:  "Mismatch-information properties (P1-P3)",
		Header: []string{"metric", "x", "value"},
	}
	// (a) Mismatch-position delta bits (RS4).
	mph := long.SAGeStats.MismatchDeltaHist
	total := float64(mph.Total())
	cum := 0.0
	for b := 0; b <= 10; b++ {
		frac := float64(mph[b]) / total
		cum += frac
		t.Rows = append(t.Rows, []string{"(a) RS4 mismatch-pos delta bits", fmt.Sprint(b), pct(frac)})
	}
	t.Rows = append(t.Rows, []string{"(a) cumulative <=10 bits", "", pct(cum)})
	// (b) Mismatch counts per read (RS2).
	cd := short.SAGeStats.MismatchCountDist
	var ctotal int64
	for _, c := range cd {
		ctotal += c
	}
	for v := 0; v <= 5; v++ {
		t.Rows = append(t.Rows, []string{"(b) RS2 mismatch count", fmt.Sprint(v), pct(float64(cd[v]) / float64(ctotal))})
	}
	// (c)+(d) Indel blocks (RS4).
	bl := long.SAGeStats.IndelBlockLenDist
	var blocks, bases int64
	for l, c := range bl {
		blocks += c
		bases += int64(l) * c
	}
	var cblocks, cbases int64
	for l := 1; l <= 8; l++ {
		cblocks += bl[l]
		cbases += int64(l) * bl[l]
		t.Rows = append(t.Rows, []string{"(c) RS4 indel block len CDF", fmt.Sprint(l), pct(float64(cblocks) / float64(blocks))})
		t.Rows = append(t.Rows, []string{"(d) RS4 indel bases CDF", fmt.Sprint(l), pct(float64(cbases) / float64(bases))})
	}
	t.Notes = append(t.Notes,
		"P1: most deltas need few bits; P3: most blocks are length 1 yet longer blocks hold a large base share")
	t.Metric("fig7_delta_le10bits_pct", 100*cum)
	t.Metric("fig7_zero_mismatch_reads_pct", 100*float64(cd[0])/float64(ctotal))
	t.Metric("fig7_indel_len1_blocks_pct", 100*float64(bl[1])/float64(blocks))
	return t, nil
}

// ---------------------------------------------------------------------
// Fig. 10: matching-position delta bits after reordering.
// ---------------------------------------------------------------------

// Fig10 reports the distribution of bits needed for delta-encoded
// matching positions in the RS2-class set.
func (s *Suite) Fig10() (*Table, error) {
	m, err := s.Measurement("RS2")
	if err != nil {
		return nil, err
	}
	h := m.SAGeStats.MatchDeltaHist
	total := float64(h.Total())
	t := &Table{
		ID:     "fig10",
		Title:  "Bits needed for delta-encoded matching positions (RS2)",
		Header: []string{"bits", "% of matching positions"},
	}
	cum8 := 0.0
	for b := 0; b <= 15; b++ {
		if b <= 8 {
			cum8 += float64(h[b]) / total
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(b), pct(float64(h[b]) / total)})
	}
	t.Notes = append(t.Notes, "paper: heavy skew toward small bit counts (deep sampling, Property 6)")
	t.Metric("fig10_delta_le8bits_pct", 100*cum8)
	return t, nil
}

// ---------------------------------------------------------------------
// Fig. 13: end-to-end speedups, all configurations, PCIe + SATA.
// ---------------------------------------------------------------------

// Fig13 reports end-to-end speedup over (N)Spr for every configuration,
// on PCIe and SATA devices.
func (s *Suite) Fig13() (*Table, error) {
	ms, err := s.allMeasurements()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig13",
		Title:  "End-to-end speedup over (N)Spr (GEM analysis)",
		Header: []string{"device", "read set"},
	}
	for _, c := range AllConfigs() {
		t.Header = append(t.Header, c.String())
	}
	for _, iface := range []ssd.Interface{ssd.PCIeGen4(), ssd.SATA3()} {
		gms := make([][]float64, numConfigs)
		for _, m := range ms {
			plat := DefaultPlatform()
			plat.Device.Interface = iface
			base, err := EndToEnd(CfgSpring, m, plat)
			if err != nil {
				return nil, err
			}
			row := []string{iface.Name, m.Gen.Label}
			for ci, c := range AllConfigs() {
				res, err := EndToEnd(c, m, plat)
				if err != nil {
					return nil, err
				}
				sp := base.Total.Seconds() / res.Total.Seconds()
				gms[ci] = append(gms[ci], sp)
				row = append(row, f2(sp))
			}
			t.Rows = append(t.Rows, row)
		}
		row := []string{iface.Name, "GMean"}
		for ci := range AllConfigs() {
			row = append(row, f2(geomean(gms[ci])))
		}
		t.Rows = append(t.Rows, row)
		if iface.Name == ssd.PCIeGen4().Name {
			for ci, c := range AllConfigs() {
				t.Metric("fig13_pcie_gmean_"+metricSlug(c.String()), geomean(gms[ci]))
			}
		}
	}
	t.Notes = append(t.Notes,
		"paper (PCIe): SAGe = 12.3x over pigz, 3.9x over (N)Spr, 3.0x over (N)SprAC; SAGe matches 0TimeDec",
		"paper: SAGeSSD+ISF can fall below SAGe when ISF filters little and the interface is SATA")
	return t, nil
}

// ---------------------------------------------------------------------
// Fig. 14: data-preparation-only speedup.
// ---------------------------------------------------------------------

// Fig14 reports preparation throughput speedups over pigz.
func (s *Suite) Fig14() (*Table, error) {
	ms, err := s.allMeasurements()
	if err != nil {
		return nil, err
	}
	cfgs := []SystemConfig{CfgSpring, CfgSpringAC, CfgSAGe}
	t := &Table{
		ID:     "fig14",
		Title:  "Data preparation speedup over pigz (PCIe)",
		Header: []string{"read set", "(N)Spr", "(N)SprAC", "SAGe"},
	}
	gms := make([][]float64, len(cfgs))
	for _, m := range ms {
		plat := DefaultPlatform()
		base, err := PrepOnlyTime(CfgPigz, m, plat)
		if err != nil {
			return nil, err
		}
		row := []string{m.Gen.Label}
		for ci, c := range cfgs {
			d, err := PrepOnlyTime(c, m, plat)
			if err != nil {
				return nil, err
			}
			sp := base.Seconds() / d.Seconds()
			gms[ci] = append(gms[ci], sp)
			row = append(row, f2(sp))
		}
		t.Rows = append(t.Rows, row)
	}
	row := []string{"GMean"}
	for ci := range cfgs {
		row = append(row, f2(geomean(gms[ci])))
	}
	t.Rows = append(t.Rows, row)
	t.Notes = append(t.Notes, "paper: SAGe prep is 91.3x over pigz, 29.5x over (N)Spr, 22.3x over (N)SprAC")
	for ci, c := range cfgs {
		t.Metric("fig14_prep_speedup_gmean_"+metricSlug(c.String()), geomean(gms[ci]))
	}
	return t, nil
}

// ---------------------------------------------------------------------
// Fig. 15: multiple SSDs.
// ---------------------------------------------------------------------

// Fig15 reports speedups over single-SSD (N)Spr with 1/2/4 SSDs.
func (s *Suite) Fig15() (*Table, error) {
	ms, err := s.allMeasurements()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig15",
		Title:  "End-to-end speedup over (N)Spr with multiple SSDs (PCIe)",
		Header: []string{"read set", "#SSDs", "SAGe", "SAGeSSD+ISF"},
	}
	sgByN := make(map[int][]float64)
	for _, m := range ms {
		plat := DefaultPlatform()
		base, err := EndToEnd(CfgSpring, m, plat)
		if err != nil {
			return nil, err
		}
		for _, n := range []int{1, 2, 4} {
			pn := plat
			pn.NSSD = n
			sg, err := EndToEnd(CfgSAGe, m, pn)
			if err != nil {
				return nil, err
			}
			isf, err := EndToEnd(CfgSAGeISF, m, pn)
			if err != nil {
				return nil, err
			}
			sgByN[n] = append(sgByN[n], base.Total.Seconds()/sg.Total.Seconds())
			t.Rows = append(t.Rows, []string{
				m.Gen.Label, fmt.Sprintf("%dx", n),
				f2(base.Total.Seconds() / sg.Total.Seconds()),
				f2(base.Total.Seconds() / isf.Total.Seconds()),
			})
		}
	}
	t.Notes = append(t.Notes, "paper: SAGe keeps its speedup; SAGeSSD+ISF gains with more SSDs on ISF-friendly sets")
	for _, n := range []int{1, 2, 4} {
		t.Metric(fmt.Sprintf("fig15_sage_gmean_%dssd", n), geomean(sgByN[n]))
	}
	return t, nil
}

// ---------------------------------------------------------------------
// Table 1: area and power.
// ---------------------------------------------------------------------

// Table1 reproduces the area/power table from the hardware model.
func (s *Suite) Table1() (*Table, error) {
	t := &Table{
		ID:     "tab1",
		Title:  "Area and power of SAGe's logic (22 nm, 1 GHz)",
		Header: []string{"logic unit", "instances", "area [mm2]", "power [mW]"},
	}
	for _, u := range hw.Table1Units() {
		t.Rows = append(t.Rows, []string{
			u.Name, "1 per channel",
			fmt.Sprintf("%.6f", u.AreaMM2), fmt.Sprintf("%.3f", u.PowerMW),
		})
	}
	base := hw.Totals(8, hw.ModePCIe)
	m3 := hw.Totals(8, hw.ModeInSSD)
	t.Rows = append(t.Rows, []string{
		"Total (8-channel SSD)", "-",
		fmt.Sprintf("%.4f", m3.AreaMM2),
		fmt.Sprintf("%.2f (+%.2f for mode 3)", base.PowerMW, m3.PowerMW-base.PowerMW),
	})
	t.Notes = append(t.Notes, fmt.Sprintf(
		"area = %.2f%% of three SSD-controller cores (paper: 0.7%%)",
		100*hw.AreaFractionOfControllerCores(8, 3, hw.ModeInSSD)))
	t.Metric("tab1_area_mm2_8ch", m3.AreaMM2)
	t.Metric("tab1_power_mw_mode3", m3.PowerMW)
	t.Metric("tab1_area_pct_of_ctrl_cores", 100*hw.AreaFractionOfControllerCores(8, 3, hw.ModeInSSD))
	return t, nil
}

// ---------------------------------------------------------------------
// Fig. 16: energy.
// ---------------------------------------------------------------------

// Fig16 reports end-to-end energy reduction normalized to (N)SprAC.
func (s *Suite) Fig16() (*Table, error) {
	ms, err := s.allMeasurements()
	if err != nil {
		return nil, err
	}
	cfgs := []SystemConfig{CfgPigz, CfgSpring, CfgSAGeSW, CfgSAGe}
	t := &Table{
		ID:     "fig16",
		Title:  "End-to-end energy reduction vs (N)SprAC (higher is better)",
		Header: []string{"read set", "pigz", "(N)Spr", "SAGeSW", "SAGe"},
	}
	gms := make([][]float64, len(cfgs))
	for _, m := range ms {
		plat := DefaultPlatform()
		base, err := EndToEnd(CfgSpringAC, m, plat)
		if err != nil {
			return nil, err
		}
		row := []string{m.Gen.Label}
		for ci, c := range cfgs {
			res, err := EndToEnd(c, m, plat)
			if err != nil {
				return nil, err
			}
			red := base.EnergyJ / res.EnergyJ
			gms[ci] = append(gms[ci], red)
			row = append(row, f2(red))
		}
		t.Rows = append(t.Rows, row)
	}
	row := []string{"GMean"}
	for ci := range cfgs {
		row = append(row, f2(geomean(gms[ci])))
	}
	t.Rows = append(t.Rows, row)
	t.Notes = append(t.Notes, "paper: SAGe reduces energy 34.0x vs pigz, 16.9x vs (N)Spr, 13.0x vs (N)SprAC")
	for ci, c := range cfgs {
		t.Metric("fig16_energy_reduction_gmean_"+metricSlug(c.String()), geomean(gms[ci]))
	}
	return t, nil
}

// ---------------------------------------------------------------------
// Table 2: compression ratios.
// ---------------------------------------------------------------------

// Table2 reports DNA and quality compression ratios per tool.
func (s *Suite) Table2() (*Table, error) {
	ms, err := s.allMeasurements()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "tab2",
		Title: "Compression ratios",
		Header: []string{"read set", "uncomp MB",
			"pigz DNA", "pigz Qual", "(N)Spr DNA", "(N)Spr Qual", "SAGe DNA", "SAGe Qual"},
	}
	var sageVsSpring []float64
	var sageVsPigz []float64
	for _, m := range ms {
		t.Rows = append(t.Rows, []string{
			m.Gen.Label,
			f1(float64(len(m.Gen.FASTQ)) / 1e6),
			f2(m.Pigz.DNARatio), f2(m.Pigz.QualRatio),
			f2(m.Spring.DNARatio), f2(m.Spring.QualRatio),
			f2(m.SAGe.DNARatio), f2(m.SAGe.QualRatio),
		})
		sageVsSpring = append(sageVsSpring, m.SAGe.DNARatio/m.Spring.DNARatio)
		sageVsPigz = append(sageVsPigz, m.SAGe.DNARatio/m.Pigz.DNARatio)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("SAGe DNA ratio vs (N)Spr: %.1f%% (paper: -4.6%%); vs pigz: %.1fx (paper: 2.9x)",
			100*(geomean(sageVsSpring)-1), geomean(sageVsPigz)),
		"SAGe and (N)Spr share the quality codec, so quality ratios match (paper Table 2)")
	t.Metric("tab2_sage_dna_vs_spring_pct", 100*(geomean(sageVsSpring)-1))
	t.Metric("tab2_sage_dna_vs_pigz_x", geomean(sageVsPigz))
	return t, nil
}

// ---------------------------------------------------------------------
// Fig. 17: optimization breakdown.
// ---------------------------------------------------------------------

// Fig17 reports the mismatch-information size breakdown per optimization
// level for a short (RS2) and long (RS4) read set, normalized to NO.
func (s *Suite) Fig17() (*Table, error) {
	t := &Table{
		ID:    "fig17",
		Title: "Mismatch-information size by optimization level (normalized to NO)",
		Header: []string{"read set", "level", "total",
			"matchPos", "misPos", "counts", "bases", "types", "readLen", "rev", "corner", "unmapped"},
	}
	for _, label := range []string{"RS2", "RS4"} {
		m, err := s.Measurement(label)
		if err != nil {
			return nil, err
		}
		bds, err := core.ComputeBreakdowns(m.Gen.Reads, m.Gen.Ref, core.DefaultOptions(m.Gen.Ref))
		if err != nil {
			return nil, err
		}
		norm := float64(bds[0].TotalBits())
		for _, bd := range bds {
			c := bd.Components
			t.Rows = append(t.Rows, []string{
				label, bd.Level.String(),
				f2(float64(bd.TotalBits()) / norm),
				f2(float64(c.MatchingPos) / norm),
				f2(float64(c.MismatchPos) / norm),
				f2(float64(c.MismatchCount) / norm),
				f2(float64(c.MismatchBases) / norm),
				f2(float64(c.MismatchTypes) / norm),
				f2(float64(c.ReadLen) / norm),
				f2(float64(c.Rev) / norm),
				f2(float64(c.Corner) / norm),
				f2(float64(c.Unmapped) / norm),
			})
		}
		t.Metric("fig17_"+metricSlug(label)+"_final_vs_no",
			float64(bds[len(bds)-1].TotalBits())/norm)
	}
	t.Notes = append(t.Notes,
		"paper: O1 shrinks matching positions (short); O2 shrinks mismatch positions/counts;",
		"O3 shrinks bases for long reads (chimeras) while growing positions slightly; O4 shrinks corner labels")
	return t, nil
}

// ---------------------------------------------------------------------
// Table 3: decompression tool comparison.
// ---------------------------------------------------------------------

// Table3 reproduces the tool-comparison table: published figures for the
// other tools, measured figures for this SAGe implementation.
func (s *Suite) Table3() (*Table, error) {
	ms, err := s.allMeasurements()
	if err != nil {
		return nil, err
	}
	var ratios, totalRatios, tput []float64
	for _, m := range ms {
		ratios = append(ratios, m.SAGe.DNARatio)
		totalRatios = append(totalRatios, float64(len(m.Gen.FASTQ))/float64(m.SAGe.CompressedBytes))
		tput = append(tput, m.SAGe.DecompressBps)
	}
	t := &Table{
		ID:    "tab3",
		Title: "Decompression tools (published figures; SAGe rows measured here)",
		Header: []string{"tool", "genomic", "avg ratio", "hardware", "memory footprint",
			"decomp GB/s"},
	}
	t.Rows = [][]string{
		{"nvCOMP (DEFLATE)", "no", "5.3", "GPU (A100)", "1.5 GB", "50"},
		{"Xilinx GZIP engine", "no", "5.3", "FPGA (Alveo U50)", "80 KB", "0.7"},
		{"xz", "no", "6.7", "CPU (128 cores)", "13 GB", "0.6"},
		{"HW zstd", "no", "6.7", "ASIC (1.89 mm2, 14 nm)", "2-64 KB", "3.9"},
		{"GPUFastqLZ", "yes", "5.8", "GPU (4x V100)", "n/a", "7.8"},
		{"repaq", "yes", "17.1", "FPGA (Alveo U200)", "16 GB", "n/a"},
		{"(Nano)Spring", "yes", "16.9", "CPU (128 cores)", "26 GB", "0.7"},
		{"SAGe (paper)", "yes", "15.8", "ASIC (0.002 mm2, 22 nm)", "128 B", "75.4"},
		{"SAGe (this repo, HW model)", "yes", f1(geomean(ratios)),
			fmt.Sprintf("ASIC model (%.4f mm2)", hw.Totals(8, hw.ModeInSSD).AreaMM2),
			"128 B registers",
			f2(ssdModelDecodeGBps(geomean(totalRatios)))},
		{"SAGe (this repo, sw decode)", "yes", f1(geomean(ratios)), "this host",
			"streaming (regs + batch)", f2(geomean(tput) / 1e9)},
	}
	t.Notes = append(t.Notes,
		"SAGe's decoder performs no pattern-matching lookups: per-channel state is five shift registers (§5.2)")
	t.Metric("tab3_sage_dna_ratio_gmean", geomean(ratios))
	t.Metric("tab3_hw_model_decode_gbps", ssdModelDecodeGBps(geomean(totalRatios)))
	t.Metric("tab3_sw_decode_gbps", geomean(tput)/1e9)
	return t, nil
}

// ssdModelDecodeGBps is the modeled hardware decode rate: NAND line rate
// over the default 8-channel device's internal bandwidth, times the
// measured expansion factor (FASTQ bytes out per compressed byte in).
// The paper reports 75.4 GB/s for its device and datasets.
func ssdModelDecodeGBps(expansion float64) float64 {
	dev, err := ssd.New(ssd.DefaultConfig())
	if err != nil {
		return 0
	}
	return dev.InternalReadBandwidthMBps(true) / 1e3 * expansion
}

// ---------------------------------------------------------------------
// Fig. 18: compression time.
// ---------------------------------------------------------------------

// Fig18 reports compression time split into mismatch finding and encoding,
// normalized per read set to the slowest tool.
func (s *Suite) Fig18() (*Table, error) {
	ms, err := s.allMeasurements()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig18",
		Title:  "Compression time (normalized per read set)",
		Header: []string{"read set", "tool", "find-mismatches", "encode", "total"},
	}
	var sageFindShare []float64
	for _, m := range ms {
		max := m.Pigz.CompressTime
		for _, d := range []time.Duration{m.Spring.CompressTime, m.SAGe.CompressTime} {
			if d > max {
				max = d
			}
		}
		norm := func(d time.Duration) string { return f2(d.Seconds() / max.Seconds()) }
		for _, cr := range []*CodecResult{&m.Pigz, &m.Spring, &m.SAGe} {
			find := cr.MismatchFindTime
			if find > cr.CompressTime {
				find = cr.CompressTime
			}
			enc := cr.CompressTime - find
			if cr == &m.SAGe {
				sageFindShare = append(sageFindShare, find.Seconds()/cr.CompressTime.Seconds())
			}
			t.Rows = append(t.Rows, []string{
				m.Gen.Label, cr.Name, norm(find), norm(enc), norm(cr.CompressTime),
			})
		}
	}
	t.Notes = append(t.Notes,
		"paper: genomic compressors are dominated by mismatch finding; SAGe's encode is slightly faster than (N)Spr's backend")
	t.Metric("fig18_sage_find_share_gmean", geomean(sageFindShare))
	return t, nil
}

// ---------------------------------------------------------------------

// experimentList enumerates every experiment for All/Run.
func (s *Suite) experimentList() []struct {
	ID  string
	Run func() (*Table, error)
} {
	return []struct {
		ID  string
		Run func() (*Table, error)
	}{
		{"fig1", s.Fig1},
		{"fig4", s.Fig4},
		{"fig7", s.Fig7},
		{"fig10", s.Fig10},
		{"fig13", s.Fig13},
		{"fig14", s.Fig14},
		{"fig15", s.Fig15},
		{"tab1", s.Table1},
		{"fig16", s.Fig16},
		{"tab2", s.Table2},
		{"fig17", s.Fig17},
		{"tab3", s.Table3},
		{"fig18", s.Fig18},
		{"instorage", s.InstorageExperiment},
		{"query", s.QueryExperiment},
		{"reorder", s.ReorderExperiment},
	}
}

// Run executes one experiment by ID.
func (s *Suite) Run(id string) (*Table, error) {
	for _, e := range s.experimentList() {
		if e.ID == id {
			return e.Run()
		}
	}
	return nil, fmt.Errorf("bench: unknown experiment %q", id)
}

// IDs lists the experiment identifiers.
func (s *Suite) IDs() []string {
	var out []string
	for _, e := range s.experimentList() {
		out = append(out, e.ID)
	}
	return out
}

// All runs every experiment.
func (s *Suite) All() ([]*Table, error) {
	var out []*Table
	for _, e := range s.experimentList() {
		tb, err := e.Run()
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", e.ID, err)
		}
		out = append(out, tb)
	}
	return out, nil
}
