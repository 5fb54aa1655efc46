package main

import (
	"math"
	"sort"
	"strconv"
)

// metricDef names one metric the benchmark emits. The two tables below are
// the single description the program prints from; BENCHMARK.json repeats
// them for the driver and the test asserts the two agree.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression. Zero for
	// per-layer metrics, which have none.
	Bound float64
}

// endToEnd lists what a user of the system sees. Every workload reports every
// one of them (the driver's contract); see README.md for the definitions.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ingest_mbps", "MB/s", "higher", 0.20},
	{"decode_mbps", "MB/s", "higher", 0.20},
	{"ratio", "x", "higher", 0.01},
	{"serve_cold_p50_ms", "ms", "lower", 0.20},
	{"serve_cold_p90_ms", "ms", "lower", 0.25},
	{"serve_rps", "1/s", "higher", 0.25},
	{"serve_p99_ms", "ms", "lower", 0.25},
}

// perLayer lists the single-layer metrics of the traced pass, by module.
var perLayer = []metricDef{
	{"pargz.gunzip_ms", "ms", "lower", 0},
	{"pargz.gunzip_mbps", "MB/s", "higher", 0},
	{"pargz.members", "count", "lower", 0},
	{"fastq.scan_ms", "ms", "lower", 0},
	{"fastq.scan_mbps", "MB/s", "higher", 0},
	{"fastq.records", "count", "higher", 0},
	{"fastq.format_ms", "ms", "lower", 0},
	{"reorder.sort_ms", "ms", "lower", 0},
	{"reorder.spilled_runs", "count", "lower", 0},
	{"reorder.restore_ms", "ms", "lower", 0},
	{"mapper.index_ms", "ms", "lower", 0},
	{"mapper.map_ms", "ms", "lower", 0},
	{"mapper.map_us_per_read", "us", "lower", 0},
	{"mapper.exact_frac", "fraction", "higher", 0},
	{"mapper.unmapped_frac", "fraction", "lower", 0},
	{"qual.compress_ms", "ms", "lower", 0},
	{"qual.compress_mbps", "MB/s", "higher", 0},
	{"qual.bits_per_score", "bits", "lower", 0},
	{"qual.decompress_ms", "ms", "lower", 0},
	{"qual.decompress_mbps", "MB/s", "higher", 0},
	{"headers.compress_ms", "ms", "lower", 0},
	{"headers.decompress_ms", "ms", "lower", 0},
	{"headers.bytes_per_read", "B", "lower", 0},
	{"core.compress_ms", "ms", "lower", 0},
	{"core.compress_self_ms", "ms", "lower", 0},
	{"core.dna_bits_per_base", "bits", "lower", 0},
	{"core.decompress_ms", "ms", "lower", 0},
	{"core.decompress_self_ms", "ms", "lower", 0},
	{"shard.ingest_1w_ms", "ms", "lower", 0},
	{"shard.ingest_self_ms", "ms", "lower", 0},
	{"shard.ingest_scaling", "x", "higher", 0},
	{"shard.open_ms", "ms", "lower", 0},
	{"shard.block_crc_ms", "ms", "lower", 0},
	{"shard.decode_1w_mbps", "MB/s", "higher", 0},
	{"shard.decode_scaling", "x", "higher", 0},
	{"shard.shards", "count", "lower", 0},
	{"shard.header_bytes", "B", "lower", 0},
	{"shard.ingest_alloc_mb_per_mb", "MB/MB", "lower", 0},
	{"shard.decode_alloc_mb_per_mb", "MB/MB", "lower", 0},
	{"proc.peak_rss_mb", "MB", "lower", 0},
	{"serve.decoded_shard_ms", "ms", "lower", 0},
	{"serve.http_overhead_ms", "ms", "lower", 0},
	{"serve.cold_p99_ms", "ms", "lower", 0},
	{"serve.warm_p50_ms", "ms", "lower", 0},
	{"serve.steady_p50_ms", "ms", "lower", 0},
	{"serve.cache_hit_ratio", "fraction", "higher", 0},
	{"serve.decodes", "count", "lower", 0},
	{"serve.deduped_decodes", "count", "higher", 0},
	{"serve.evictions", "count", "lower", 0},
	{"trace.coverage_ingest", "fraction", "higher", 0},
	{"trace.coverage_decode", "fraction", "higher", 0},
}

// summary is the spread recorded beside every reported value: how many
// samples it rests on and their five-number summary.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

// quantile returns the p-quantile of an ascending slice by linear
// interpolation between the two nearest ranks; 0 for no samples, which only
// happens when every operation behind the metric failed.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// summarize sorts a copy of v and returns its five-number summary.
func summarize(v []float64) summary {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return summary{}
	}
	return summary{
		N: len(s), Min: s[0], Q1: quantile(s, 0.25), Median: quantile(s, 0.5),
		Q3: quantile(s, 0.75), Max: s[len(s)-1],
	}
}

// samples accumulates the per-round values of the named metrics.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// measured is one reported metric: the value (a median or a percentile of its
// samples) and the spread of the samples it was taken from.
type measured struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Stat says how Value was taken from the samples ("median", "p90", ...).
	Stat    string  `json:"stat"`
	Samples summary `json:"samples"`
}

// report turns samples into the reported metrics of defs. pct overrides the
// statistic for the named metrics (default: the median).
func report(defs []metricDef, s samples, pct map[string]float64) map[string]measured {
	out := make(map[string]measured, len(defs))
	for _, d := range defs {
		sum := summarize(s[d.Name])
		m := measured{Value: sum.Median, Unit: d.Unit, Better: d.Better, Bound: d.Bound, Stat: "median", Samples: sum}
		if p, ok := pct[d.Name]; ok {
			sorted := append([]float64(nil), s[d.Name]...)
			sort.Float64s(sorted)
			m.Value = quantile(sorted, p)
			m.Stat = "p" + strconv.FormatFloat(p*100, 'f', -1, 64)
		}
		out[d.Name] = m
	}
	return out
}
