package bench

import (
	"fmt"
	"time"

	"sage/internal/instorage"
	"sage/internal/shard"
	"sage/internal/ssd"
)

// This file benchmarks the in-storage scan-unit dispatch engine
// (internal/instorage): a sharded container is placed on the modeled
// SSD with shard-aligned genomic placement and every shard is streamed
// through a per-channel Scan/Read-Construction unit. The per-shard
// times are *modeled* flash reads and scan-unit decodes (the decode is
// still performed functionally, so the bytes are real); the scan-unit
// pool schedule is then computed by ShardMakespan. Measured wall-clock
// figures come only from the repository benchmark (benchmark/).

// ShardMakespan computes the completion time of a pool of `workers`
// executing jobs with the given durations. Jobs are handed in order to
// the first free worker — the same discipline shard.CompressPipeline's
// channel pool follows.
func ShardMakespan(durations []time.Duration, workers int) time.Duration {
	if workers < 1 {
		workers = 1
	}
	if workers > len(durations) {
		workers = len(durations)
	}
	if workers == 0 {
		return 0
	}
	busy := make([]time.Duration, workers)
	for _, d := range durations {
		min := 0
		for w := 1; w < workers; w++ {
			if busy[w] < busy[min] {
				min = w
			}
		}
		busy[min] += d
	}
	makespan := busy[0]
	for _, b := range busy[1:] {
		if b > makespan {
			makespan = b
		}
	}
	return makespan
}

// ShardSpeedup returns makespan(1 worker) / makespan(workers).
func ShardSpeedup(durations []time.Duration, workers int) float64 {
	base := ShardMakespan(durations, 1)
	par := ShardMakespan(durations, workers)
	if par <= 0 {
		return 1
	}
	return float64(base) / float64(par)
}

// instorageUnitCounts is the scan-unit sweep the experiment reports;
// the paper's device has 8 channels, one unit per channel (Table 1).
var instorageUnitCounts = []int{1, 2, 4, 8}

// instorageScan compresses a measurement's read set into a sharded
// container, places it on a default device, and scans it.
func instorageScan(m *Measurement) (*instorage.Result, error) {
	n := len(m.Gen.Reads.Records)
	opt := shard.DefaultOptions(m.Gen.Ref)
	opt.ShardReads = (n + 15) / 16 // ~16 shards, 2 per channel
	data, _, err := shard.Compress(m.Gen.Reads, opt)
	if err != nil {
		return nil, err
	}
	dev, err := ssd.New(ssd.DefaultConfig())
	if err != nil {
		return nil, err
	}
	p, err := instorage.New(dev).Place(m.Gen.Label+".sage", data)
	if err != nil {
		return nil, err
	}
	return p.Scan(nil)
}

// InstorageExperiment builds the "instorage" table on the suite's RS2
// dataset: per-shard flash-read + scan-unit decode service times
// scheduled onto 1..8 per-channel scan units.
func (s *Suite) InstorageExperiment() (*Table, error) {
	m, err := s.Measurement("RS2")
	if err != nil {
		return nil, err
	}
	res, err := instorageScan(m)
	if err != nil {
		return nil, err
	}
	times := res.ServiceTimes()
	t := &Table{
		ID:     "instorage",
		Title:  "In-storage scan-unit dispatch (RS2, shard-aligned placement)",
		Header: []string{"scan units", "makespan (ms)", "decoded GB/s", "speedup"},
		Notes: []string{
			fmt.Sprintf("%d reads in %d shards placed shard-aligned across %d channels; per-shard service = max(flash read, unit decode)",
				res.Reads, len(res.PerShard), res.Channels),
			fmt.Sprintf("keyed dispatch (shard i -> channel i mod %d): makespan %.1f ms",
				res.Channels, ms(res.ChannelMakespan)),
			fmt.Sprintf("pipeline recurrence (flash-read -> scan-decode): total %.1f ms, bottleneck %s",
				ms(res.Pipeline.Total), res.Pipeline.BottleneckName()),
		},
	}
	if bound := res.DecodeBound(); len(bound) == 0 {
		t.Notes = append(t.Notes, "scan-unit decode is never the critical path: flash supply dominates every shard (NAND-bound, paper §8.2)")
	} else {
		t.Notes = append(t.Notes, fmt.Sprintf("WARNING: shards %v are decode-bound (violates §8.2 sizing)", bound))
	}
	for _, u := range instorageUnitCounts {
		mk := ShardMakespan(times, u)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", u),
			fmt.Sprintf("%.1f", ms(mk)),
			fmt.Sprintf("%.2f", float64(res.OutputBytes)/mk.Seconds()/1e9),
			f2(ShardSpeedup(times, u)),
		})
		t.Metric(fmt.Sprintf("makespan_%dunit_ms", u), ms(mk))
		t.Metric(fmt.Sprintf("speedup_%dunit", u), ShardSpeedup(times, u))
	}
	t.Metric("channel_makespan_ms", ms(res.ChannelMakespan))
	t.Metric("pipeline_total_ms", ms(res.Pipeline.Total))
	for _, st := range res.Stages {
		t.MeasuredMetric("host_"+st.Stage+"_ms", ms(st.Total))
	}
	return t, nil
}

// ms renders a duration in milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
