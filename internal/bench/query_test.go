package bench

import (
	"math"
	"math/rand"
	"testing"
)

// TestQueryGate is the push-down experiment's shape gate: the length
// predicate along the short/long boundary must prune at least half the
// shards (those shards cost zero flash I/O), and filtering the
// survivors in storage must beat the decode-everything host baseline
// while still finding matches.
func TestQueryGate(t *testing.T) {
	s := testSuite(t)
	m, err := s.Measurement("RS2")
	if err != nil {
		t.Fatal(err)
	}
	p, err := queryPlaced(m)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.C.NumShards(); got != queryShortShards+queryLongShards {
		t.Fatalf("mixed container has %d shards, want %d", got, queryShortShards+queryLongShards)
	}

	// The gate row: min-len=200 provably excludes every 150-base
	// short-read shard by zone map alone.
	fr, err := p.FilterScan(queryGatePredicate())
	if err != nil {
		t.Fatal(err)
	}
	if fr.ShardsPruned*2 < fr.ShardsTotal {
		t.Fatalf("selective predicate pruned %d/%d shards, want >= half", fr.ShardsPruned, fr.ShardsTotal)
	}
	if fr.ShardsScanned*2 >= fr.ShardsTotal {
		t.Fatalf("selective predicate decoded %d/%d shards, want < half", fr.ShardsScanned, fr.ShardsTotal)
	}
	if fr.ReadsMatched == 0 {
		t.Fatal("selective predicate matched nothing; the long tail is missing")
	}
	if fr.Speedup <= 1 {
		t.Fatalf("in-storage filter speedup %.2fx over the decode-everything host, want > 1", fr.Speedup)
	}
	if fr.InStorage >= fr.HostBaseline {
		t.Fatalf("in-storage %v must beat host baseline %v", fr.InStorage, fr.HostBaseline)
	}

	// Predicate sweep sanity: the pass-everything row scans all shards,
	// and every row's plan partitions the container.
	rng := rand.New(rand.NewSource(13))
	for _, pr := range queryPredicates(p.C, rng) {
		r, err := p.FilterScan(pr.P)
		if err != nil {
			t.Fatalf("%s: %v", pr.Name, err)
		}
		if r.ShardsPruned+r.ShardsScanned != r.ShardsTotal {
			t.Fatalf("%s: plan %d pruned + %d scanned != %d total", pr.Name, r.ShardsPruned, r.ShardsScanned, r.ShardsTotal)
		}
		if !pr.P.Active() && (r.ShardsPruned != 0 || r.ReadsMatched != r.ReadsScanned) {
			t.Fatalf("pass-everything row pruned %d shards, matched %d/%d reads", r.ShardsPruned, r.ReadsMatched, r.ReadsScanned)
		}
		if math.IsInf(r.Speedup, 1) && r.ShardsScanned != 0 {
			t.Fatalf("%s: infinite speedup with %d shards scanned", pr.Name, r.ShardsScanned)
		}
	}

	// The experiment table renders.
	tb, err := s.Run("query")
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("query table has %d rows, want 5", len(tb.Rows))
	}
}
