package bench

import (
	"testing"

	"sage/internal/accel"
	"sage/internal/ssd"
)

func TestConfigStrings(t *testing.T) {
	want := map[SystemConfig]string{
		CfgPigz: "pigz", CfgSpring: "(N)Spr", CfgSpringAC: "(N)SprAC",
		Cfg0TimeDec: "0TimeDec", CfgSAGeSW: "SAGeSW", CfgSAGe: "SAGe",
		CfgSAGeSSD: "SAGeSSD", CfgSAGeISF: "SAGeSSD+ISF",
	}
	for c, w := range want {
		if c.String() != w {
			t.Errorf("%d prints %q want %q", c, c.String(), w)
		}
	}
	if len(AllConfigs()) != int(numConfigs) {
		t.Fatalf("AllConfigs covers %d of %d", len(AllConfigs()), numConfigs)
	}
}

func TestConfigPayload(t *testing.T) {
	m := &Measurement{
		Pigz:   CodecResult{CompressedBytes: 100},
		Spring: CodecResult{CompressedBytes: 50},
		SAGe:   CodecResult{CompressedBytes: 60},
	}
	if c, g := configPayload(CfgPigz, m); c != 100 || g {
		t.Fatal("pigz payload")
	}
	if c, g := configPayload(Cfg0TimeDec, m); c != 50 || g {
		t.Fatal("0TimeDec must read the Spring payload")
	}
	if c, g := configPayload(CfgSAGeISF, m); c != 60 || !g {
		t.Fatal("SAGe payloads use the genomic layout")
	}
}

func TestPaperRateConstants(t *testing.T) {
	// The calibrated gaps are exactly the paper's.
	if r := paperSpringBps / paperPigzBps; r < 3.0 || r > 3.2 {
		t.Fatalf("spring/pigz rate gap %.2f; want 12.3/4.0", r)
	}
	if r := paperSAGeSWBps / paperSpringBps; r != 2.3 {
		t.Fatalf("SAGeSW/spring gap %.2f; want 2.3", r)
	}
}

func TestEndToEndRejectsUnknownConfig(t *testing.T) {
	s := testSuite(t)
	m, err := s.Measurement("RS1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EndToEnd(SystemConfig(99), m, DefaultPlatform()); err == nil {
		t.Fatal("unknown config must error")
	}
}

func TestVirtualScaleMonotone(t *testing.T) {
	s := testSuite(t)
	m, err := s.Measurement("RS1")
	if err != nil {
		t.Fatal(err)
	}
	small := DefaultPlatform()
	small.VirtualScale = 100
	big := DefaultPlatform()
	big.VirtualScale = 1000
	rs, err := EndToEnd(CfgSpring, m, small)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := EndToEnd(CfgSpring, m, big)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Total < rs.Total*5 {
		t.Fatalf("10x workload should take ~10x: %v vs %v", rs.Total, rb.Total)
	}
}

func TestMultiSSDNeverSlower(t *testing.T) {
	s := testSuite(t)
	m, err := s.Measurement("RS2")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range AllConfigs() {
		one := DefaultPlatform()
		four := DefaultPlatform()
		four.NSSD = 4
		r1, err := EndToEnd(cfg, m, one)
		if err != nil {
			t.Fatal(err)
		}
		r4, err := EndToEnd(cfg, m, four)
		if err != nil {
			t.Fatal(err)
		}
		if r4.Total > r1.Total*101/100 {
			t.Errorf("%v: 4 SSDs slower than 1 (%v vs %v)", cfg, r4.Total, r1.Total)
		}
	}
}

func TestSATAAlwaysSlowerOrEqual(t *testing.T) {
	s := testSuite(t)
	m, err := s.Measurement("RS2")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range AllConfigs() {
		pcie := DefaultPlatform()
		sata := DefaultPlatform()
		sata.Device.Interface = ssd.SATA3()
		rp, err := EndToEnd(cfg, m, pcie)
		if err != nil {
			t.Fatal(err)
		}
		rs2, err := EndToEnd(cfg, m, sata)
		if err != nil {
			t.Fatal(err)
		}
		if rs2.Total < rp.Total {
			t.Errorf("%v: SATA faster than PCIe (%v vs %v)", cfg, rs2.Total, rp.Total)
		}
	}
}

func TestPrepOnlyFasterThanEndToEnd(t *testing.T) {
	s := testSuite(t)
	m, err := s.Measurement("RS3")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []SystemConfig{CfgPigz, CfgSpring, CfgSAGe} {
		full, err := EndToEnd(cfg, m, DefaultPlatform())
		if err != nil {
			t.Fatal(err)
		}
		prep, err := PrepOnlyTime(cfg, m, DefaultPlatform())
		if err != nil {
			t.Fatal(err)
		}
		if prep > full.Total {
			t.Errorf("%v: prep-only %v exceeds end-to-end %v", cfg, prep, full.Total)
		}
	}
}

func TestISFFilterFractionMatters(t *testing.T) {
	s := testSuite(t)
	m, err := s.Measurement("RS2")
	if err != nil {
		t.Fatal(err)
	}
	weak := DefaultPlatform()
	weak.ISF = accel.GenStore(0.05)
	strong := DefaultPlatform()
	strong.ISF = accel.GenStore(0.95)
	rw, err := EndToEnd(CfgSAGeISF, m, weak)
	if err != nil {
		t.Fatal(err)
	}
	rs2, err := EndToEnd(CfgSAGeISF, m, strong)
	if err != nil {
		t.Fatal(err)
	}
	if rs2.Total >= rw.Total {
		t.Fatalf("stronger filtering must not be slower: %v vs %v", rs2.Total, rw.Total)
	}
}

func TestEnergyPositive(t *testing.T) {
	s := testSuite(t)
	m, err := s.Measurement("RS1")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range AllConfigs() {
		res, err := EndToEnd(cfg, m, DefaultPlatform())
		if err != nil {
			t.Fatal(err)
		}
		if res.EnergyJ <= 0 {
			t.Errorf("%v: energy %.3f J", cfg, res.EnergyJ)
		}
		if res.Total <= 0 {
			t.Errorf("%v: total %v", cfg, res.Total)
		}
	}
}

func BenchmarkEndToEndPipeline(b *testing.B) {
	s := NewSuite(0.2)
	m, err := s.Measurement("RS1")
	if err != nil {
		b.Fatal(err)
	}
	plat := DefaultPlatform()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EndToEnd(CfgSAGeISF, m, plat); err != nil {
			b.Fatal(err)
		}
	}
}
