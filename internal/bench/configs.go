package bench

import (
	"fmt"
	"time"

	"sage/internal/accel"
	"sage/internal/hw"
	"sage/internal/pipeline"
	"sage/internal/ssd"
)

// SystemConfig identifies one end-to-end configuration of Fig. 13.
type SystemConfig int

const (
	CfgPigz SystemConfig = iota
	CfgSpring
	CfgSpringAC // Spring with an idealized BWT accelerator ((N)SprAC)
	Cfg0TimeDec // idealized zero-time decompression
	CfgSAGeSW   // SAGe's algorithm, decoded in software on the host
	CfgSAGe     // SAGe hardware on PCIe (mode ①/②)
	CfgSAGeSSD  // SAGe hardware in the SSD controller (mode ③)
	CfgSAGeISF  // SAGe in-SSD + GenStore in-storage filter
	numConfigs
)

func (c SystemConfig) String() string {
	switch c {
	case CfgPigz:
		return "pigz"
	case CfgSpring:
		return "(N)Spr"
	case CfgSpringAC:
		return "(N)SprAC"
	case Cfg0TimeDec:
		return "0TimeDec"
	case CfgSAGeSW:
		return "SAGeSW"
	case CfgSAGe:
		return "SAGe"
	case CfgSAGeSSD:
		return "SAGeSSD"
	case CfgSAGeISF:
		return "SAGeSSD+ISF"
	default:
		return fmt.Sprintf("config(%d)", int(c))
	}
}

// AllConfigs lists the Fig. 13 configurations in presentation order.
func AllConfigs() []SystemConfig {
	return []SystemConfig{CfgPigz, CfgSpring, CfgSpringAC, Cfg0TimeDec,
		CfgSAGeSW, CfgSAGe, CfgSAGeSSD, CfgSAGeISF}
}

// bwtAccelSavedFrac is the fraction of Spring-like decompression
// eliminated by an idealized BWT/entropy-stage accelerator ((N)SprAC,
// §7: "an idealized accelerator that can fully eliminate the BWT
// execution time"). Calibrated so (N)SprAC/(N)Spr ≈ the paper's 3.9/3.0.
const bwtAccelSavedFrac = 0.25

// Software preparation rates in uncompressed FASTQ bytes/second, pinned
// to the paper's measured component ratios instead of timed on this
// machine (a Go process is not the paper's 128-core host): (Nano)Spring
// decompresses at 0.7 GB/s (Table 3); with GEM, end-to-end is 12.3x
// slower on pigz and 4.0x slower on (N)Spr than with ideal prep
// (Fig. 4), so pigz runs at 4.0/12.3 of Spring's rate; SAGeSW decodes
// 2.3x faster than (N)Spr (§8.1); the BWT accelerator removes
// bwtAccelSavedFrac of Spring's time (§7).
const (
	paperSpringBps = 0.7e9
	paperPigzBps   = paperSpringBps * 4.0 / 12.3
	paperSAGeSWBps = paperSpringBps * 2.3
	paperSprACBps  = paperSpringBps / (1 - bwtAccelSavedFrac)
)

// paperAnalysisBps converts the dataset's Fig.4-calibrated ideal-over-
// Spring slowdown into an effective accelerator consumption rate in
// FASTQ bytes/second: with Spring prep-bound at paperSpringBps, the
// ideal-prep pipeline runs `slowdown` times faster, i.e. the analysis
// stage consumes slowdown x paperSpringBps.
func paperAnalysisBps(m *Measurement) float64 {
	s := m.Gen.PaperIdealOverSpring
	if s <= 0 {
		s = 4.0
	}
	return paperSpringBps * s
}

// Host power model (AMD EPYC 7742 class, §7).
const (
	hostIdleW       = 90.0
	hostActiveW     = 225.0
	nBatchesDefault = 32
)

// Platform bundles the hardware a configuration runs on.
type Platform struct {
	Device ssd.Config
	// NSSD is the SSD count (Fig. 15); data is partitioned disjointly.
	NSSD   int
	Mapper accel.Mapper
	ISF    accel.ISF
	// VirtualScale multiplies the dataset's sizes when building the
	// pipeline workload: the synthetic read sets are ~1000x smaller than
	// the paper's (DESIGN.md), so the pipeline is fed sizes scaled back
	// up; otherwise fixed per-batch latencies (tR, pipeline fill) would
	// dominate and hide every throughput effect.
	VirtualScale float64
}

// DefaultPlatform returns the PCIe single-SSD GEM platform.
func DefaultPlatform() Platform {
	return Platform{
		Device:       ssd.DefaultConfig(),
		NSSD:         1,
		Mapper:       accel.GEM(),
		VirtualScale: 1000,
	}
}

// EndToEnd runs one configuration on one measurement and returns the
// pipeline result (times + energy).
func EndToEnd(cfg SystemConfig, m *Measurement, plat Platform) (pipeline.Result, error) {
	return endToEnd(cfg, m, plat, true)
}

func endToEnd(cfg SystemConfig, m *Measurement, plat Platform, withAnalysis bool) (pipeline.Result, error) {
	dev, err := ssd.New(plat.Device)
	if err != nil {
		return pipeline.Result{}, err
	}
	n := plat.NSSD
	if n < 1 {
		n = 1
	}
	isf := plat.ISF
	if cfg == CfgSAGeISF && isf.Name == "" {
		isf = accel.GenStore(m.Gen.ISFFilter)
	}

	vs := plat.VirtualScale
	if vs <= 0 {
		vs = 1
	}
	comp, genomicLayout := configPayload(cfg, m)
	U := int64(float64(m.UncompressedBytes()) * vs)
	reads := int(float64(len(m.Gen.Reads.Records)) * vs)
	bases := int64(float64(m.Gen.NBases) * vs)
	batches := pipeline.MakeBatches(reads, bases, int64(float64(comp)*vs), U, nBatchesDefault)

	scale := func(d time.Duration) time.Duration { return d / time.Duration(n) }
	hwTh := hw.DefaultThroughput(plat.Device.Geometry.Channels * n)
	internalMBps := dev.InternalReadBandwidthMBps(true) * float64(n)
	ifaceMBps := plat.Device.Interface.MBps * float64(n)

	ioStage := pipeline.Stage{
		Name:    "io",
		ActiveW: ssd.ActiveReadW * float64(n),
		IdleW:   ssd.IdleW * float64(n),
	}
	prepStage := pipeline.Stage{Name: "prep"}
	// The GEM stage consumes FASTQ-equivalent bytes at the Fig.4-derived
	// rate (dataset-dependent: long-read mapping is far slower per byte);
	// other mappers (e.g. the software baseline of Fig. 1) keep their own
	// published throughputs.
	analysisTime := func(b pipeline.Batch) time.Duration {
		return plat.Mapper.MapTime(b.Reads, b.Bases)
	}
	if plat.Mapper.Name == "GEM" {
		aRate := paperAnalysisBps(m)
		analysisTime = func(b pipeline.Batch) time.Duration {
			return time.Duration(float64(b.UncompressedBytes) / aRate * float64(time.Second))
		}
	}
	analysis := pipeline.Stage{
		Name:    "analysis",
		ActiveW: plat.Mapper.PowerW,
		Time:    analysisTime,
	}
	// The host draws idle power for the whole run in every
	// configuration; software preparation adds its active power.
	hostStage := pipeline.Stage{
		Name:  "host",
		IdleW: hostIdleW,
		Time:  func(pipeline.Batch) time.Duration { return 0 },
	}

	switch cfg {
	case CfgPigz, CfgSpring, CfgSpringAC, CfgSAGeSW:
		// Compressed data crosses the interface; the host decompresses.
		ioStage.Time = func(b pipeline.Batch) time.Duration {
			return scale(dev.ExternalReadTime(b.CompressedBytes, genomicLayout))
		}
		var rate float64 // uncompressed output B/s
		switch cfg {
		case CfgPigz:
			rate = paperPigzBps
		case CfgSpring:
			rate = paperSpringBps
		case CfgSpringAC:
			rate = paperSprACBps
		case CfgSAGeSW:
			rate = paperSAGeSWBps
		}
		prepStage.ActiveW = hostActiveW - hostIdleW
		prepStage.Time = func(b pipeline.Batch) time.Duration {
			return time.Duration(float64(b.UncompressedBytes) / rate * float64(time.Second))
		}
	case Cfg0TimeDec:
		ioStage.Time = func(b pipeline.Batch) time.Duration {
			return scale(dev.ExternalReadTime(b.CompressedBytes, false))
		}
		prepStage.Time = func(pipeline.Batch) time.Duration { return 0 }
	case CfgSAGe:
		// Mode ①/②: compressed stream crosses the interface; SAGe
		// hardware decodes at line rate next to the accelerator.
		ioStage.Time = func(b pipeline.Batch) time.Duration {
			return scale(dev.ExternalReadTime(b.CompressedBytes, true))
		}
		prepStage.ActiveW = hw.Power(plat.Device.Geometry.Channels*n, hw.ModePCIe)
		prepStage.Time = func(b pipeline.Batch) time.Duration {
			return hwTh.DecodeTime(b.CompressedBytes, b.Bases/4, ifaceMBps, 0)
		}
	case CfgSAGeSSD:
		// Mode ③ without filtering: decode inside the SSD; the
		// DECOMPRESSED stream crosses the interface.
		ioStage.Time = func(b pipeline.Batch) time.Duration {
			return scale(dev.InternalReadTime(b.CompressedBytes, true))
		}
		prepStage.ActiveW = hw.Power(plat.Device.Geometry.Channels*n, hw.ModeInSSD)
		prepStage.Time = func(b pipeline.Batch) time.Duration {
			// SAGe_Read egresses reads in the accelerator's 2-bit
			// format (§5.4), not FASTQ text.
			return hwTh.DecodeTime(b.CompressedBytes, b.Bases/4, internalMBps, ifaceMBps)
		}
	case CfgSAGeISF:
		// Mode ③ + GenStore: decode and filter in-SSD; only surviving
		// reads cross the interface and reach the mapper.
		ioStage.Time = func(b pipeline.Batch) time.Duration {
			return scale(dev.InternalReadTime(b.CompressedBytes, true))
		}
		prepStage.ActiveW = hw.Power(plat.Device.Geometry.Channels*n, hw.ModeInSSD) + isf.PowerW
		prepStage.Time = func(b pipeline.Batch) time.Duration {
			decode := hwTh.DecodeTime(b.CompressedBytes, b.Bases/4, internalMBps, 0)
			filter := scale(isf.FilterTime(b.Bases))
			_, keepBases := isf.Remaining(b.Reads, b.Bases)
			egress := time.Duration(float64(keepBases/4) / (ifaceMBps * 1e6) * float64(time.Second))
			worst := decode
			if filter > worst {
				worst = filter
			}
			if egress > worst {
				worst = egress
			}
			return worst
		}
		analysis.Time = func(b pipeline.Batch) time.Duration {
			keep := 1 - isf.FilterFraction
			shrunk := b
			shrunk.Reads, shrunk.Bases = isf.Remaining(b.Reads, b.Bases)
			shrunk.UncompressedBytes = int64(float64(b.UncompressedBytes) * keep)
			return analysisTime(shrunk)
		}
	default:
		return pipeline.Result{}, fmt.Errorf("bench: unknown config %v", cfg)
	}

	stages := []pipeline.Stage{hostStage, ioStage, prepStage}
	if withAnalysis {
		stages = append(stages, analysis)
	}
	return pipeline.Run(batches, stages)
}

// configPayload returns the compressed size feeding a configuration and
// whether it sits in SAGe's aligned genomic layout.
func configPayload(cfg SystemConfig, m *Measurement) (int, bool) {
	switch cfg {
	case CfgPigz:
		return m.Pigz.CompressedBytes, false
	case CfgSpring, CfgSpringAC, Cfg0TimeDec:
		return m.Spring.CompressedBytes, false
	default:
		return m.SAGe.CompressedBytes, true
	}
}

// PrepOnlyTime returns just the data-preparation time (Fig. 14): reading
// and decompressing the whole set with no analysis stage. Paper-
// calibrated prep rates are still derived from the platform's real
// mapper, matching the paper's setup where prep throughput is a property
// of the host, not of the downstream accelerator.
func PrepOnlyTime(cfg SystemConfig, m *Measurement, plat Platform) (time.Duration, error) {
	res, err := endToEnd(cfg, m, plat, false)
	if err != nil {
		return 0, err
	}
	return res.Total, nil
}
