package pipeline

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// Property: for any batch/stage mix, the pipelined makespan is bounded
// below by every stage's busy time and above by the serial sum.
func TestQuickPipelineBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nBatches := rng.Intn(20) + 1
		nStages := rng.Intn(4) + 1
		durs := make([][]time.Duration, nStages)
		for s := range durs {
			durs[s] = make([]time.Duration, nBatches)
			for b := range durs[s] {
				durs[s][b] = time.Duration(rng.Intn(1000)) * time.Microsecond
			}
		}
		batches := MakeBatches(nBatches, 0, 0, 0, nBatches)
		stages := make([]Stage, nStages)
		for s := range stages {
			s := s
			stages[s] = Stage{
				Name: "s",
				Time: func(b Batch) time.Duration { return durs[s][b.Index] },
			}
		}
		res, err := Run(batches, stages)
		if err != nil {
			return false
		}
		serial := serialTime(batches, stages)
		if res.Total > serial {
			return false
		}
		for s := range stages {
			if res.Total < res.Busy[s] {
				return false
			}
		}
		// Critical-path lower bound: fill of first batch through all
		// stages.
		var fill time.Duration
		for s := range stages {
			fill += durs[s][0]
		}
		return res.Total >= fill
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: doubling every stage's duration doubles the makespan (the
// schedule is work-conserving and deterministic).
func TestQuickPipelineLinearity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nBatches := rng.Intn(10) + 1
		base := make([]time.Duration, nBatches)
		for i := range base {
			base[i] = time.Duration(rng.Intn(500)+1) * time.Microsecond
		}
		mk := func(mult time.Duration) []Stage {
			return []Stage{{Name: "x", Time: func(b Batch) time.Duration {
				return base[b.Index] * mult
			}}}
		}
		batches := MakeBatches(nBatches, 0, 0, 0, nBatches)
		r1, err := Run(batches, mk(1))
		if err != nil {
			return false
		}
		r2, err := Run(batches, mk(2))
		if err != nil {
			return false
		}
		return r2.Total == 2*r1.Total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
