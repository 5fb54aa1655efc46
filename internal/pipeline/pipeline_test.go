package pipeline

import (
	"testing"
	"time"
)

func constStage(name string, d time.Duration) Stage {
	return Stage{Name: name, Time: func(Batch) time.Duration { return d }}
}

func TestMakeBatchesConserves(t *testing.T) {
	bs := MakeBatches(1003, 150450, 777, 12345, 7)
	if len(bs) != 7 {
		t.Fatalf("%d batches", len(bs))
	}
	var reads int
	var bases, comp, unc int64
	for _, b := range bs {
		reads += b.Reads
		bases += b.Bases
		comp += b.CompressedBytes
		unc += b.UncompressedBytes
	}
	if reads != 1003 || bases != 150450 || comp != 777 || unc != 12345 {
		t.Fatalf("totals not conserved: %d %d %d %d", reads, bases, comp, unc)
	}
}

func TestMakeBatchesClamps(t *testing.T) {
	if got := len(MakeBatches(3, 3, 3, 3, 10)); got != 3 {
		t.Fatalf("%d batches for 3 reads", got)
	}
	if got := len(MakeBatches(100, 0, 0, 0, 0)); got != 1 {
		t.Fatalf("%d batches for n=0", got)
	}
}

func TestPipelineSteadyState(t *testing.T) {
	// 10 batches through stages of 1ms, 5ms, 2ms: makespan ≈ fill
	// (1+5+2 ms) + 9 × 5ms = 53ms exactly for this recurrence.
	batches := MakeBatches(1000, 0, 0, 0, 10)
	stages := []Stage{
		constStage("io", time.Millisecond),
		constStage("prep", 5*time.Millisecond),
		constStage("map", 2*time.Millisecond),
	}
	res, err := Run(batches, stages)
	if err != nil {
		t.Fatal(err)
	}
	want := 53 * time.Millisecond
	if res.Total != want {
		t.Fatalf("total %v want %v", res.Total, want)
	}
	if res.BottleneckName() != "prep" {
		t.Fatalf("bottleneck %q", res.BottleneckName())
	}
	// Pipelining must beat serial execution.
	if serial := serialTime(batches, stages); serial <= res.Total {
		t.Fatalf("serial %v should exceed pipelined %v", serial, res.Total)
	}
}

func TestPipelineSingleBatchIsSerial(t *testing.T) {
	batches := MakeBatches(10, 0, 0, 0, 1)
	stages := []Stage{constStage("a", time.Millisecond), constStage("b", 2*time.Millisecond)}
	res, err := Run(batches, stages)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 3*time.Millisecond {
		t.Fatalf("total %v", res.Total)
	}
}

func TestPipelineEnergy(t *testing.T) {
	batches := MakeBatches(100, 0, 0, 0, 4)
	stages := []Stage{
		{Name: "x", Time: func(Batch) time.Duration { return time.Second }, ActiveW: 10, IdleW: 1},
		{Name: "y", Time: func(Batch) time.Duration { return time.Second }, ActiveW: 2, IdleW: 0},
	}
	res, err := Run(batches, stages)
	if err != nil {
		t.Fatal(err)
	}
	// x busy 4s, y busy 4s, total 5s. E = 10*4 + 1*5 + 2*4 = 53 J.
	if res.Total != 5*time.Second {
		t.Fatalf("total %v", res.Total)
	}
	if diff := res.EnergyJ - 53; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("energy %v want 53", res.EnergyJ)
	}
}

func TestPipelineErrors(t *testing.T) {
	if _, err := Run(nil, nil); err == nil {
		t.Fatal("expected error for no stages")
	}
	if _, err := Run(MakeBatches(1, 0, 0, 0, 1), []Stage{{Name: "broken"}}); err == nil {
		t.Fatal("expected error for stage without time model")
	}
	neg := []Stage{{Name: "neg", Time: func(Batch) time.Duration { return -1 }}}
	if _, err := Run(MakeBatches(1, 0, 0, 0, 1), neg); err == nil {
		t.Fatal("expected error for negative time")
	}
}

func TestThroughput(t *testing.T) {
	res := Result{Total: 2 * time.Second}
	if got := res.Throughput(1000); got != 500 {
		t.Fatalf("throughput %v", got)
	}
	if (Result{}).Throughput(5) != 0 {
		t.Fatal("zero-total throughput must be 0")
	}
}

func TestBatchDependentTiming(t *testing.T) {
	// Stage time proportional to batch size: uneven batches must not
	// break the schedule.
	batches := []Batch{{Reads: 10}, {Reads: 1000}, {Reads: 1}}
	stage := Stage{Name: "v", Time: func(b Batch) time.Duration {
		return time.Duration(b.Reads) * time.Microsecond
	}}
	res, err := Run(batches, []Stage{stage})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 1011*time.Microsecond {
		t.Fatalf("total %v", res.Total)
	}
}

func TestMakeShardBatches(t *testing.T) {
	reads := []int{100, 7, 42}
	comp := []int64{1000, 90, 400}
	uncomp := []int64{16000, 1100, 6400}
	bs, err := MakeShardBatches(reads, nil, comp, uncomp)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 3 {
		t.Fatalf("%d batches", len(bs))
	}
	for i, b := range bs {
		if b.Index != i || b.Reads != reads[i] || b.Bases != 0 ||
			b.CompressedBytes != comp[i] || b.UncompressedBytes != uncomp[i] {
			t.Fatalf("batch %d = %+v", i, b)
		}
	}
	if _, err := MakeShardBatches(reads, []int64{1}, nil, nil); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := MakeShardBatches([]int{5, -1}, nil, nil, nil); err == nil {
		t.Fatal("negative read count must error")
	}
	if bs, err := MakeShardBatches(nil, nil, nil, nil); err != nil || len(bs) != 0 {
		t.Fatalf("empty shard list: %v, %d batches", err, len(bs))
	}
}

// serialTime is the unpipelined sum of every stage over every batch.
func serialTime(batches []Batch, stages []Stage) time.Duration {
	var total time.Duration
	for _, b := range batches {
		for _, st := range stages {
			total += st.Time(b)
		}
	}
	return total
}
