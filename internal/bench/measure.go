package bench

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"sage/internal/core"
	"sage/internal/fastq"
	"sage/internal/gzipc"
	"sage/internal/mapper"
	"sage/internal/springc"
)

// CodecResult holds one compressor's measurements on one dataset.
type CodecResult struct {
	Name string
	// Sizes in bytes.
	CompressedBytes int
	DNABytes        int
	QualBytes       int
	// Ratios match Table 2's definitions: raw FASTQ line bytes over
	// compressed section bytes.
	DNARatio  float64
	QualRatio float64
	// Timing.
	CompressTime time.Duration
	// MismatchFindTime is the mapping share of compression (Fig. 18);
	// zero for general-purpose compressors.
	MismatchFindTime time.Duration
	// DecompressBps is the measured decompression rate in uncompressed
	// output bytes per second (SAGe only: Tab. 3's software decode row).
	DecompressBps float64
	// Payload is the compressed artifact (stored into the SSD model by
	// the end-to-end experiments).
	Payload []byte
}

// Measurement bundles all compressors on one dataset.
type Measurement struct {
	Gen    *Generated
	Pigz   CodecResult
	Spring CodecResult
	SAGe   CodecResult
	// SAGeStats carries the encoder's detailed statistics (Figs. 7/10/17).
	SAGeStats core.Stats
}

// UncompressedBytes is the FASTQ size.
func (m *Measurement) UncompressedBytes() int64 { return int64(len(m.Gen.FASTQ)) }

// Measure runs and times every compressor on the dataset.
func Measure(g *Generated) (*Measurement, error) {
	m := &Measurement{Gen: g}

	// --- pigz ---
	start := time.Now()
	pz := gzipc.Compress(g.FASTQ)
	pigzCompress := time.Since(start)
	// Section ratios: gzip the DNA and quality lines separately, as
	// Table 2 reports them per stream.
	dnaBlob, qualBlob := sectionBlobs(g.Reads)
	pzDNA := gzipc.Compress(dnaBlob)
	pzQual := gzipc.Compress(qualBlob)
	out, err := gzipc.Decompress(pz)
	if err != nil {
		return nil, fmt.Errorf("bench: pigz decompress: %w", err)
	}
	if !bytes.Equal(out, g.FASTQ) {
		return nil, fmt.Errorf("bench: pigz roundtrip mismatch on %s", g.Label)
	}
	m.Pigz = CodecResult{
		Name:            "pigz",
		CompressedBytes: len(pz),
		DNABytes:        len(pzDNA),
		QualBytes:       len(pzQual),
		DNARatio:        ratio(len(dnaBlob), len(pzDNA)),
		QualRatio:       ratio(len(qualBlob), len(pzQual)),
		CompressTime:    pigzCompress,
		Payload:         pz,
	}

	// --- Spring-like ---
	start = time.Now()
	spr, err := springc.Compress(g.Reads, g.Ref)
	if err != nil {
		return nil, fmt.Errorf("bench: spring compress: %w", err)
	}
	sprCompress := time.Since(start)
	sprOut, err := springc.Decompress(spr.Data)
	if err != nil {
		return nil, fmt.Errorf("bench: spring decompress: %w", err)
	}
	if !fastq.Equivalent(g.Reads, sprOut) {
		return nil, fmt.Errorf("bench: spring roundtrip mismatch on %s", g.Label)
	}
	m.Spring = CodecResult{
		Name:            "spring",
		CompressedBytes: spr.Stats.CompressedBytes,
		DNABytes:        spr.Stats.DNABytes,
		QualBytes:       spr.Stats.QualityBytes,
		DNARatio:        ratio(len(dnaBlob), spr.Stats.DNABytes),
		QualRatio:       ratio(len(qualBlob), spr.Stats.QualityBytes),
		CompressTime:    sprCompress,
		Payload:         spr.Data,
	}

	// --- SAGe ---
	sageOpt := core.DefaultOptions(g.Ref)
	// Time the mismatch-finding (mapping) phase alone for Fig. 18 by
	// running the same mapper pass the encoder performs.
	start = time.Now()
	if err := mapOnly(g); err != nil {
		return nil, fmt.Errorf("bench: mapping pass: %w", err)
	}
	sageMapTime := time.Since(start)
	start = time.Now()
	enc, err := core.Compress(g.Reads, sageOpt)
	if err != nil {
		return nil, fmt.Errorf("bench: sage compress: %w", err)
	}
	sageCompress := time.Since(start)
	start = time.Now()
	sageOut, err := core.Decompress(enc.Data, nil)
	if err != nil {
		return nil, fmt.Errorf("bench: sage decompress: %w", err)
	}
	sageDecomp := time.Since(start)
	if !fastq.Equivalent(g.Reads, sageOut) {
		return nil, fmt.Errorf("bench: sage roundtrip mismatch on %s", g.Label)
	}
	m.SAGe = CodecResult{
		Name:             "sage",
		CompressedBytes:  enc.Stats.CompressedBytes,
		DNABytes:         enc.Stats.DNABytes,
		QualBytes:        enc.Stats.QualityBytes,
		DNARatio:         ratio(len(dnaBlob), enc.Stats.DNABytes),
		QualRatio:        ratio(len(qualBlob), enc.Stats.QualityBytes),
		CompressTime:     sageCompress,
		MismatchFindTime: sageMapTime,
		DecompressBps:    bps(len(g.FASTQ), sageDecomp),
		Payload:          enc.Data,
	}
	m.SAGeStats = enc.Stats
	// Spring's mismatch-finding share equals SAGe's (same front end).
	m.Spring.MismatchFindTime = sageMapTime
	return m, nil
}

// mapOnly runs only the mismatch-finding phase (the mapper over all
// reads), the dominant share of genomic compression time (Fig. 18).
// It parallelizes exactly like the encoders so the measured share is
// comparable to the total compression times.
func mapOnly(g *Generated) error {
	m, err := mapper.New(g.Ref, mapper.DefaultConfig())
	if err != nil {
		return err
	}
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	ch := make(chan int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				_ = m.Map(g.Reads.Records[i].Seq)
			}
		}()
	}
	for i := range g.Reads.Records {
		ch <- i
	}
	close(ch)
	wg.Wait()
	return nil
}

func sectionBlobs(rs *fastq.ReadSet) (dna, qual []byte) {
	var d, q bytes.Buffer
	for i := range rs.Records {
		d.WriteString(rs.Records[i].Seq.String())
		d.WriteByte('\n')
		for _, s := range rs.Records[i].Qual {
			q.WriteByte(s + fastq.QualityOffset)
		}
		q.WriteByte('\n')
	}
	return d.Bytes(), q.Bytes()
}

func ratio(raw, comp int) float64 {
	if comp == 0 {
		return 0
	}
	return float64(raw) / float64(comp)
}

func bps(rawBytes int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(rawBytes) / d.Seconds()
}
