package bench

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"sage/internal/pipeline"
)

func TestShardMakespan(t *testing.T) {
	ms := func(v ...int) []time.Duration {
		out := make([]time.Duration, len(v))
		for i, x := range v {
			out[i] = time.Duration(x) * time.Millisecond
		}
		return out
	}
	cases := []struct {
		durations []time.Duration
		workers   int
		want      time.Duration
	}{
		{ms(10, 10, 10, 10), 1, 40 * time.Millisecond},
		{ms(10, 10, 10, 10), 2, 20 * time.Millisecond},
		{ms(10, 10, 10, 10), 4, 10 * time.Millisecond},
		{ms(10, 10, 10, 10), 8, 10 * time.Millisecond}, // workers capped at shard count
		{ms(40, 10, 10, 10), 2, 40 * time.Millisecond}, // skewed: long shard dominates
		{ms(), 4, 0},
		{ms(7), 3, 7 * time.Millisecond},
	}
	for i, c := range cases {
		if got := ShardMakespan(c.durations, c.workers); got != c.want {
			t.Errorf("case %d: makespan(%v, %d) = %v, want %v", i, c.durations, c.workers, got, c.want)
		}
	}
}

// TestInstorageGate is the experiment's shape gate: scheduling the
// per-shard service times onto the 8-channel scan-unit array must show
// real parallel speedup over a single unit, and the scan-unit decode
// must never be the critical path (NAND-bound, §8.2).
func TestInstorageGate(t *testing.T) {
	s := testSuite(t)
	m, err := s.Measurement("RS2")
	if err != nil {
		t.Fatal(err)
	}
	res, err := instorageScan(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerShard) < 8 {
		t.Fatalf("only %d shards; the dispatch sweep needs more than the channel count", len(res.PerShard))
	}
	if bound := res.DecodeBound(); len(bound) != 0 {
		t.Fatalf("shards %v are decode-bound; §8.2 sizing requires flash supply to dominate", bound)
	}
	if res.Pipeline.BottleneckName() != "flash-read" {
		t.Fatalf("pipeline bottleneck %q, want flash-read", res.Pipeline.BottleneckName())
	}
	times := res.ServiceTimes()
	mk1, mk8 := ShardMakespan(times, 1), ShardMakespan(times, 8)
	if mk8 >= mk1 {
		t.Fatalf("8 scan units (%v) must beat 1 (%v)", mk8, mk1)
	}
	// ~16 near-equal shards on 8 units should land close to 8x; gate
	// at 3x so noise in shard sizes never flakes the build.
	if sp := ShardSpeedup(times, 8); sp < 3 {
		t.Fatalf("speedup@8 = %.2fx, want >= 3x", sp)
	}
	// The keyed per-channel dispatch is a legal schedule of the same
	// work: it cannot beat the longest single shard and cannot exceed
	// the serial sum. (It is NOT bounded below by the greedy pool's
	// makespan — greedy list scheduling is suboptimal, and a keyed
	// round-robin can legitimately beat it.)
	var longest time.Duration
	for _, d := range times {
		if d > longest {
			longest = d
		}
	}
	if res.ChannelMakespan < longest || res.ChannelMakespan > mk1 {
		t.Fatalf("channel-keyed makespan %v outside [%v, %v]", res.ChannelMakespan, longest, mk1)
	}
	// The experiment table renders and carries the sweep.
	tb, err := s.Run("instorage")
	if err != nil {
		t.Fatal(err)
	}
	if sp := cell(t, tb, []string{"8"}, "speedup"); sp < 3 {
		t.Fatalf("table speedup@8 = %.2f, want >= 3", sp)
	}
}

// randomDurations builds n service times in [1µs, 1ms].
func randomDurations(rng *rand.Rand, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Intn(999)+1) * time.Microsecond
	}
	return out
}

// TestQuickMakespanMatchesPipelineSerialSum ties ShardMakespan to the
// pipeline recurrence: with one worker the makespan is the serial sum,
// which is exactly what the recurrence yields for a single stage over
// per-shard (unequal) batches.
func TestQuickMakespanMatchesPipelineSerialSum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(30) + 1
		times := randomDurations(rng, n)
		var sum time.Duration
		reads := make([]int, n)
		for i, d := range times {
			sum += d
			reads[i] = rng.Intn(1000)
		}
		if ShardMakespan(times, 1) != sum {
			return false
		}
		batches, err := pipeline.MakeShardBatches(reads, nil, nil, nil)
		if err != nil {
			return false
		}
		stage := []pipeline.Stage{{Name: "scan", Time: func(b pipeline.Batch) time.Duration {
			return times[b.Index]
		}}}
		res, err := pipeline.Run(batches, stage)
		if err != nil {
			return false
		}
		return res.Total == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMakespanMonotoneInWorkers: adding scan units never makes
// the schedule slower, and the makespan never drops below the
// perfectly balanced bound.
func TestQuickMakespanMonotoneInWorkers(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		times := randomDurations(rng, rng.Intn(40)+1)
		var sum, max time.Duration
		for _, d := range times {
			sum += d
			if d > max {
				max = d
			}
		}
		prev := ShardMakespan(times, 1)
		for w := 2; w <= len(times)+2; w++ {
			mk := ShardMakespan(times, w)
			if mk > prev {
				return false
			}
			if mk < max || mk < sum/time.Duration(w) {
				return false // beats the longest shard or perfect balance: impossible
			}
			prev = mk
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPipelineFillMatchesRecurrence checks pipeline.Run against a
// direct evaluation of finish[i][s] = max(finish[i-1][s],
// finish[i][s-1]) + dur[i][s] for unequal per-shard batches, including
// the fill latency of the first batch through every stage.
func TestQuickPipelineFillMatchesRecurrence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 1
		nStages := rng.Intn(3) + 2
		durs := make([][]time.Duration, n) // [batch][stage]
		reads := make([]int, n)
		for i := range durs {
			durs[i] = randomDurations(rng, nStages)
			reads[i] = rng.Intn(100) + 1
		}
		batches, err := pipeline.MakeShardBatches(reads, nil, nil, nil)
		if err != nil {
			return false
		}
		stages := make([]pipeline.Stage, nStages)
		for s := range stages {
			s := s
			stages[s] = pipeline.Stage{Name: "s", Time: func(b pipeline.Batch) time.Duration {
				return durs[b.Index][s]
			}}
		}
		res, err := pipeline.Run(batches, stages)
		if err != nil {
			return false
		}
		// Direct recurrence.
		finish := make([][]time.Duration, n)
		for i := 0; i < n; i++ {
			finish[i] = make([]time.Duration, nStages)
			for s := 0; s < nStages; s++ {
				var start time.Duration
				if i > 0 && finish[i-1][s] > start {
					start = finish[i-1][s]
				}
				if s > 0 && finish[i][s-1] > start {
					start = finish[i][s-1]
				}
				finish[i][s] = start + durs[i][s]
			}
		}
		if res.Total != finish[n-1][nStages-1] {
			return false
		}
		// Fill latency: the first batch's path is exactly the sum of its
		// stage times (nothing ahead of it to wait for).
		var fill time.Duration
		for s := 0; s < nStages; s++ {
			fill += durs[0][s]
		}
		return finish[0][nStages-1] == fill && res.Total >= fill
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
