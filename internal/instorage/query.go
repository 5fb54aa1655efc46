package instorage

import (
	"fmt"
	"math"
	"time"

	"sage/internal/hw"
	"sage/internal/obs"
	"sage/internal/shard"
)

// FilterResult is a predicate scan of a placed container: the query
// plan (zone-map pruning over the dispatch table), per-surviving-shard
// timings, and the makespan comparison against the decode-everything
// host baseline.
type FilterResult struct {
	Name      string
	Predicate string
	Channels  int
	// Plan: pruned shards are dropped from the dispatch table by their
	// zone maps alone — their pages are never read from flash.
	ShardsTotal   int
	ShardsPruned  int
	ShardsScanned int
	// ReadsScanned counts records the scan units decoded; ReadsMatched
	// the records that satisfied the predicate.
	ReadsScanned int
	ReadsMatched int
	// CompressedBytes totals the flash bytes actually streamed (the
	// surviving shards only).
	CompressedBytes int64
	// PerShard times the surviving shards, in dispatch order.
	PerShard []ShardTiming
	// InStorage is the channel makespan of the surviving shards on
	// their home channels' scan units; HostBaseline is the makespan of
	// the decode-everything host path, which must stream and decode
	// every shard before it can filter a single record. Both use the
	// same per-shard service law, so Speedup isolates what push-down
	// saves: the pruned shards' flash reads and decodes.
	InStorage    time.Duration
	HostBaseline time.Duration
	Speedup      float64
	// Stages attributes the scan's measured wall-clock (flash-read,
	// scan-decode, filter) over the surviving shards.
	Stages []obs.StageTiming
}

// FilterScan runs a predicate over the placed container in storage:
// the shard index's zone maps prune shards that provably cannot match
// (zero flash I/O — the device page-read counter does not move for
// them), and only the surviving shards are streamed from their home
// channels, decoded by their scan units, and filtered record by
// record.
//
// The host baseline is computed from the placement table and the shard
// index alone — per-shard flash-read and decode times are functions of
// page counts and compressed lengths, both known without touching the
// device — so comparing it costs no extra I/O.
func (p *Placed) FilterScan(pred *shard.Predicate) (*FilterResult, error) {
	if pred == nil {
		pred = &shard.Predicate{}
	}
	c := p.C
	scan, pruned := c.QueryPlan(pred)
	res := &FilterResult{
		Name:          p.Name,
		Predicate:     pred.String(),
		Channels:      p.eng.Channels(),
		ShardsTotal:   c.NumShards(),
		ShardsPruned:  pruned,
		ShardsScanned: len(scan),
		PerShard:      make([]ShardTiming, 0, len(scan)),
	}
	tr := obs.NewTrace(p.Name)
	var text []byte
	for _, i := range scan {
		var st ShardTiming
		var err error
		text, st, err = p.scanShard(tr, i, text[:0])
		if err != nil {
			return nil, err
		}
		msp := tr.StartSpan("filter")
		scanned, err := pred.MatchText(text, func([]byte) error {
			res.ReadsMatched++
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("instorage: shard %d: %w", i, err)
		}
		msp.End()
		res.PerShard = append(res.PerShard, st)
		res.ReadsScanned += scanned
		res.CompressedBytes += st.CompressedBytes
	}

	// Makespans. In-storage: only the survivors occupy their home
	// channels' units. Host baseline: every shard — the host cannot
	// prune what it has not decoded, so it pays the full container.
	times := make([]time.Duration, 0, len(res.PerShard))
	homes := make([]int, 0, len(res.PerShard))
	for _, st := range res.PerShard {
		times = append(times, st.Service)
		homes = append(homes, st.Channel)
	}
	var err error
	res.InStorage, err = hw.ChannelMakespan(times, homes, res.Channels)
	if err != nil {
		return nil, fmt.Errorf("instorage: %w", err)
	}
	allTimes := make([]time.Duration, c.NumShards())
	allHomes := make([]int, c.NumShards())
	for i := range c.Index.Entries {
		pl := p.Placement.Shards[i]
		flash := p.eng.Dev.ShardReadTime(pl.Pages)
		allTimes[i] = p.eng.TP.ShardServiceTime(flash, c.Index.Entries[i].Length)
		allHomes[i] = pl.Channel
	}
	res.HostBaseline, err = hw.ChannelMakespan(allTimes, allHomes, res.Channels)
	if err != nil {
		return nil, fmt.Errorf("instorage: %w", err)
	}
	if res.InStorage > 0 {
		res.Speedup = float64(res.HostBaseline) / float64(res.InStorage)
	} else if res.HostBaseline > 0 {
		// Everything pruned: the query was answered from the index
		// alone, at no streaming cost at all.
		res.Speedup = math.Inf(1)
	}
	res.Stages = tr.Stages()
	return res, nil
}
