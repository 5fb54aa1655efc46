package bench

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"sage/internal/fastq"
	"sage/internal/genome"
	"sage/internal/simulate"
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

// TestShardSpeedupTarget is the acceptance gate for the sharded
// pipeline: on a simulated read set split into 16 shards, the pool must
// deliver at least 1.5x compress throughput at 4 workers vs 1. Shard
// times are measured on the host; the pool schedule is computed, so the
// result does not depend on the test machine's core count.
func TestShardSpeedupTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ref := genome.Random(rng, 30_000)
	donor, _ := genome.Donor(rng, ref, genome.HumanLikeProfile())
	rs, err := simulate.New(rng, donor).ShortReads(800, simulate.DefaultShortProfile())
	if err != nil {
		t.Fatal(err)
	}
	times, err := MeasureShardTimes(fastq.NewBatchReader(bytes.NewReader(rs.Bytes()), 50), ref) // 16 shards
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 16 {
		t.Fatalf("got %d shards, want 16", len(times))
	}
	if sp := ShardSpeedup(times, 4); sp < 1.5 {
		t.Fatalf("speedup at 4 workers = %.2fx, want >= 1.5x (shard times %v)", sp, times)
	}
}
