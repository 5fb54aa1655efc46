package bench

import (
	"fmt"
	"math"
	"math/rand"

	"sage/internal/fastq"
	"sage/internal/genome"
	"sage/internal/instorage"
	"sage/internal/shard"
	"sage/internal/simulate"
	"sage/internal/ssd"
)

// This file benchmarks compressed-domain query push-down (format v4):
// a mixed-length container is placed on the modeled SSD and filtered
// in storage through its zone maps. The container is built so the
// predicates have real structure to exploit — the measurement's short
// reads fill the leading shards and a simulated nanopore-style long
// tail fills the trailing ones — and each predicate row compares the
// in-storage filter (pruned shards never leave flash) against the
// decode-everything host baseline on the same device model.

// queryShortShards is how many shards the short reads occupy; the long
// tail adds queryLongShards more, so a length predicate separates the
// two cleanly.
const (
	queryShortShards = 14
	queryLongShards  = 2
)

// queryPlaced builds the mixed container from a measurement and places
// it on a default device.
func queryPlaced(m *Measurement) (*instorage.Placed, error) {
	short := m.Gen.Reads
	shardReads := len(short.Records) / queryShortShards
	if shardReads < 4 {
		shardReads = 4
	}
	n := queryShortShards * shardReads
	if n > len(short.Records) {
		n = len(short.Records)
	}
	rng := rand.New(rand.NewSource(7))
	prof := simulate.DefaultLongProfile()
	prof.MeanLen, prof.MaxLen = 600, 1200
	prof.ClipRate = 0
	long, err := simulate.New(rng, m.Gen.Ref).LongReads(queryLongShards*shardReads, prof)
	if err != nil {
		return nil, err
	}
	mixed := &fastq.ReadSet{Records: append(short.Records[:n:n], long.Records...)}
	opt := shard.DefaultOptions(m.Gen.Ref)
	opt.ShardReads = shardReads
	data, _, err := shard.Compress(mixed, opt)
	if err != nil {
		return nil, err
	}
	dev, err := ssd.New(ssd.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return instorage.New(dev).Place("query.sage", data)
}

// queryGatePredicate is the selectivity the gate test pins: a length
// cut just above the short-read length, satisfiable only by the long
// tail, so every short-read shard is pruned by zone map alone.
func queryGatePredicate() *shard.Predicate {
	return &shard.Predicate{MinLen: 200}
}

// queryPredicates derives the predicate sweep from the container's own
// zone maps, so the rows stay meaningful at any dataset scale: a
// pass-everything baseline, the two length cuts along the short/long
// boundary, a quality cut at the midpoint of the per-shard average
// Phred envelope, and a k-mer probe absent from the reference (pruned
// by the shard sketches alone).
func queryPredicates(c *shard.Container, rng *rand.Rand) []struct {
	Name string
	P    *shard.Predicate
} {
	minAvg, maxAvg := math.MaxInt, 0
	for i := range c.Index.Entries {
		z := &c.Index.Entries[i].Zone
		if z.QualReads == 0 {
			continue
		}
		if z.MaxAvgPhredMilli > maxAvg {
			maxAvg = z.MaxAvgPhredMilli
		}
		if z.MaxAvgPhredMilli < minAvg {
			minAvg = z.MaxAvgPhredMilli
		}
	}
	phredCut := float64(minAvg+maxAvg) / 2000
	probe := make(genome.Seq, 24)
	for i := range probe {
		probe[i] = byte(rng.Intn(4))
	}
	return []struct {
		Name string
		P    *shard.Predicate
	}{
		{"all", &shard.Predicate{}},
		{"min-len=200 (long tail)", queryGatePredicate()},
		{"max-len=150 (short only)", &shard.Predicate{MaxLen: 150}},
		{fmt.Sprintf("min-avgphred=%.1f", phredCut), &shard.Predicate{MinAvgPhred: phredCut}},
		{"kmer (absent 24-mer)", &shard.Predicate{Subseq: probe}},
	}
}

// QueryExperiment builds the "query" table: zone-map shard pruning and
// in-storage filter speedup across predicate selectivities on the RS2
// read set plus a long-read tail.
func (s *Suite) QueryExperiment() (*Table, error) {
	m, err := s.Measurement("RS2")
	if err != nil {
		return nil, err
	}
	p, err := queryPlaced(m)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "query",
		Title:  "Compressed-domain query push-down (RS2 + long tail, zone-map pruning)",
		Header: []string{"predicate", "pruned", "scanned", "matched", "in-storage (ms)", "host (ms)", "speedup"},
	}
	rng := rand.New(rand.NewSource(13))
	channels := 0
	for qi, pr := range queryPredicates(p.C, rng) {
		fr, err := p.FilterScan(pr.P)
		if err != nil {
			return nil, err
		}
		channels = fr.Channels
		speed := f2(fr.Speedup)
		if math.IsInf(fr.Speedup, 1) {
			speed = "inf (index only)"
		}
		t.Rows = append(t.Rows, []string{
			pr.Name,
			fmt.Sprintf("%d/%d", fr.ShardsPruned, fr.ShardsTotal),
			fmt.Sprintf("%d", fr.ShardsScanned),
			fmt.Sprintf("%d", fr.ReadsMatched),
			fmt.Sprintf("%.2f", ms(fr.InStorage)),
			fmt.Sprintf("%.2f", ms(fr.HostBaseline)),
			speed,
		})
		// Keyed by query index: predicate names carry punctuation that
		// makes poor JSON keys. Inf (everything pruned) is not a JSON
		// number; expose the pruned fraction alongside instead.
		key := fmt.Sprintf("q%d_", qi)
		if !math.IsInf(fr.Speedup, 1) {
			t.Metric(key+"speedup", fr.Speedup)
		}
		t.Metric(key+"pruned_frac", float64(fr.ShardsPruned)/float64(fr.ShardsTotal))
		t.Metric(key+"instorage_ms", ms(fr.InStorage))
		t.Metric(key+"host_ms", ms(fr.HostBaseline))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d shards (%d short-read, %d long-read) across %d channels; pruned shards cost zero flash I/O",
			p.C.NumShards(), queryShortShards, queryLongShards, channels),
		"host baseline streams and decodes every shard before it can filter a record; both paths share the per-shard service law",
	)
	return t, nil
}
