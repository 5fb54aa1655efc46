// Package pipeline simulates the batched producer–consumer execution the
// paper's methodology prescribes (§3.1, §7): "I/O operations (reading
// compressed data), decompression, and read mapping operate in a
// pipelined manner and in batches, which enables partial overlapping of
// these three steps", with synchronization "modeled via a producer-
// consumer abstraction".
//
// A run is an exact schedule of the recurrence
//
//	finish[i][s] = max(finish[i-1][s], finish[i][s-1]) + dur[i][s]
//
// (batch i cannot enter stage s before the stage finishes batch i-1 and
// the previous stage finishes batch i), which yields fill latency plus a
// steady state dominated by the slowest stage — the structure of Fig. 1.
package pipeline

import (
	"fmt"
	"time"
)

// Batch is a unit of pipelined work.
type Batch struct {
	Index             int
	Reads             int
	Bases             int64
	CompressedBytes   int64
	UncompressedBytes int64
}

// MakeBatches splits read-set totals into n equal batches.
func MakeBatches(reads int, bases, compressed, uncompressed int64, n int) []Batch {
	if n <= 0 {
		n = 1
	}
	if reads < n && reads > 0 {
		n = reads
	}
	out := make([]Batch, n)
	for i := 0; i < n; i++ {
		out[i] = Batch{
			Index:             i,
			Reads:             share(int64(reads), i, n),
			Bases:             share64(bases, i, n),
			CompressedBytes:   share64(compressed, i, n),
			UncompressedBytes: share64(uncompressed, i, n),
		}
	}
	return out
}

// MakeShardBatches builds one batch per shard from per-shard totals —
// the unequal-batch path. MakeBatches' equal splits model a planner
// that may cut anywhere; a sharded container's shards are given and
// unequal (file-aware boundaries leave short tails, compression ratios
// differ shard to shard), so pipelines over them must take the sizes
// as they are. reads fixes the batch count; the int64 slices must have
// the same length or be nil (all zero).
func MakeShardBatches(reads []int, bases, compressed, uncompressed []int64) ([]Batch, error) {
	n := len(reads)
	pick := func(name string, s []int64) (func(int) int64, error) {
		if s == nil {
			return func(int) int64 { return 0 }, nil
		}
		if len(s) != n {
			return nil, fmt.Errorf("pipeline: %d %s totals for %d shards", len(s), name, n)
		}
		return func(i int) int64 { return s[i] }, nil
	}
	basesAt, err := pick("bases", bases)
	if err != nil {
		return nil, err
	}
	compAt, err := pick("compressed", compressed)
	if err != nil {
		return nil, err
	}
	uncompAt, err := pick("uncompressed", uncompressed)
	if err != nil {
		return nil, err
	}
	out := make([]Batch, n)
	for i := range out {
		if reads[i] < 0 {
			return nil, fmt.Errorf("pipeline: shard %d has negative read count %d", i, reads[i])
		}
		out[i] = Batch{
			Index:             i,
			Reads:             reads[i],
			Bases:             basesAt(i),
			CompressedBytes:   compAt(i),
			UncompressedBytes: uncompAt(i),
		}
	}
	return out, nil
}

func share(total int64, i, n int) int { return int(share64(total, i, n)) }

func share64(total int64, i, n int) int64 {
	lo := total * int64(i) / int64(n)
	hi := total * int64(i+1) / int64(n)
	return hi - lo
}

// Stage is one pipeline step.
type Stage struct {
	Name string
	// Time returns the stage's processing time for a batch.
	Time func(Batch) time.Duration
	// ActiveW is drawn while the stage processes; IdleW always.
	ActiveW float64
	IdleW   float64
}

// Result summarizes a run.
type Result struct {
	StageNames []string
	// Total is the makespan.
	Total time.Duration
	// Busy is each stage's total processing time.
	Busy []time.Duration
	// Bottleneck is the index of the stage with the largest busy time.
	Bottleneck int
	// EnergyJ is total energy: Σ stages (ActiveW×busy + IdleW×Total).
	EnergyJ float64
	// StageEnergyJ breaks energy down per stage.
	StageEnergyJ []float64
}

// Throughput returns units/second for a given total unit count.
func (r Result) Throughput(units int64) float64 {
	if r.Total <= 0 {
		return 0
	}
	return float64(units) / r.Total.Seconds()
}

// BottleneckName names the dominant stage.
func (r Result) BottleneckName() string {
	if r.Bottleneck < 0 || r.Bottleneck >= len(r.StageNames) {
		return ""
	}
	return r.StageNames[r.Bottleneck]
}

// Run schedules the batches through the stages.
func Run(batches []Batch, stages []Stage) (Result, error) {
	if len(stages) == 0 {
		return Result{}, fmt.Errorf("pipeline: no stages")
	}
	res := Result{
		StageNames:   make([]string, len(stages)),
		Busy:         make([]time.Duration, len(stages)),
		StageEnergyJ: make([]float64, len(stages)),
		Bottleneck:   0,
	}
	for s, st := range stages {
		res.StageNames[s] = st.Name
		if st.Time == nil {
			return Result{}, fmt.Errorf("pipeline: stage %q has no time model", st.Name)
		}
	}
	finishPrevRow := make([]time.Duration, len(stages)) // finish[i-1][*]
	for _, b := range batches {
		var prevStage time.Duration // finish[i][s-1]
		for s, st := range stages {
			d := st.Time(b)
			if d < 0 {
				return Result{}, fmt.Errorf("pipeline: stage %q returned negative time", st.Name)
			}
			start := prevStage
			if finishPrevRow[s] > start {
				start = finishPrevRow[s]
			}
			finish := start + d
			res.Busy[s] += d
			finishPrevRow[s] = finish
			prevStage = finish
		}
	}
	for s := range stages {
		if finishPrevRow[s] > res.Total {
			res.Total = finishPrevRow[s]
		}
		if res.Busy[s] > res.Busy[res.Bottleneck] {
			res.Bottleneck = s
		}
	}
	for s, st := range stages {
		e := st.ActiveW*res.Busy[s].Seconds() + st.IdleW*res.Total.Seconds()
		res.StageEnergyJ[s] = e
		res.EnergyJ += e
	}
	return res, nil
}
