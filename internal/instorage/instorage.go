// Package instorage unifies the sharded container with the in-storage
// model: a per-shard scan-unit dispatch engine for integration mode ③
// (SAGe on the SSD controller, Fig. 12). It writes a real *.sage
// container onto the internal/ssd model with shard-aligned genomic
// placement — every shard's byte range starts on a fresh flash page
// and lives entirely on one home channel (SAGe_Write, §5.3/§5.4),
// recorded in a per-shard placement table — then models the
// per-channel Scan/Read-Construction units of §5.2 each streaming one
// shard. The container's shard index (offset, length, crc32 per shard)
// is the dispatch table; per-shard service time is the max of the
// shard's flash read time (from its channel/page layout) and the
// scan unit's functional decode cost, so with units sized past the
// per-channel NAND rate, decompression hides behind the flash read
// itself (§8.2). Every scan really reads the placed bytes back from
// the device model and decodes them — results are checked against the
// container index, not assumed.
//
// The per-shard times feed bench.ShardMakespan (greedy scan-unit pool),
// hw.ChannelMakespan (dispatch keyed by home channel), and the
// internal/pipeline recurrence over unequal per-shard batches.
package instorage

import (
	"fmt"
	"time"

	"sage/internal/fastq"
	"sage/internal/hw"
	"sage/internal/obs"
	"sage/internal/pipeline"
	"sage/internal/shard"
	"sage/internal/ssd"
)

// Engine couples a storage device with its per-channel scan-unit
// array.
type Engine struct {
	Dev *ssd.SSD
	// TP sizes the scan units; New defaults to the paper's law (each
	// unit keeps up with its channel's NAND bus, §8.2).
	TP hw.Throughput
}

// New builds an engine on dev with one Scan/Read-Construction pair per
// channel (hw.Table1Units instance counts).
func New(dev *ssd.SSD) *Engine {
	return &Engine{Dev: dev, TP: hw.DefaultThroughput(dev.Config().Geometry.Channels)}
}

// Channels returns the number of scan units (one per channel).
func (e *Engine) Channels() int { return e.Dev.Config().Geometry.Channels }

// Placed is a container written onto the device: the parsed container
// (whose index doubles as the scan-unit dispatch table) plus the
// placement table mapping every shard to its home channel and pages.
type Placed struct {
	Name      string
	C         *shard.Container
	Placement *ssd.Placement
	// WriteTime is the modeled SAGe_Write time for the whole container.
	WriteTime time.Duration
	eng       *Engine
}

// Place parses a sharded container and writes it onto the device with
// shard-aligned genomic placement: the dispatch table's per-shard
// extents (Container.Extent) map shard i onto flash pages of channel
// i mod C, and the header/index bytes round-robin across channels.
// Placement is deterministic: the same container bytes and geometry
// always produce the same channel/page assignment.
func (e *Engine) Place(name string, data []byte) (*Placed, error) {
	c, err := shard.Parse(data)
	if err != nil {
		return nil, err
	}
	if c.NumShards() == 0 {
		return nil, fmt.Errorf("instorage: container %q has no shards to dispatch", name)
	}
	extents, err := shardExtents(c)
	if err != nil {
		return nil, err
	}
	pl, wt, err := e.Dev.WriteShards(name, data, extents)
	if err != nil {
		return nil, err
	}
	return &Placed{Name: name, C: c, Placement: pl, WriteTime: wt, eng: e}, nil
}

// shardExtents lists every shard's byte range within the container
// file, in dispatch order.
func shardExtents(c *shard.Container) ([]ssd.Extent, error) {
	extents := make([]ssd.Extent, c.NumShards())
	for i := range extents {
		off, length, err := c.Extent(i)
		if err != nil {
			return nil, err
		}
		extents[i] = ssd.Extent{Offset: off, Length: length}
	}
	return extents, nil
}

// ShardTiming is one dispatch-table row after a scan: where the shard
// lives and what streaming it cost.
type ShardTiming struct {
	Shard   int
	Channel int
	Pages   int
	// CompressedBytes is the block size read from flash; OutputBytes
	// the decoded FASTQ size leaving the Read Construction Unit.
	CompressedBytes int64
	OutputBytes     int64
	// FlashRead is the modeled channel-local read; Decode the scan
	// unit's cost for the block; Service their overlap law
	// (hw.ShardServiceTime) — what the shard occupies its unit for.
	FlashRead time.Duration
	Decode    time.Duration
	Service   time.Duration
}

// Result is a full scan of a placed container.
type Result struct {
	Name     string
	Channels int
	PerShard []ShardTiming
	// Reads and OutputBytes total the functionally decoded shards.
	Reads           int
	CompressedBytes int64
	OutputBytes     int64
	// ChannelMakespan schedules every shard on its home channel's unit
	// (the placement-keyed dispatch law, hw.ChannelMakespan).
	ChannelMakespan time.Duration
	// Pipeline runs the flash-read → scan-decode recurrence over the
	// per-shard (unequal) batches, for fill latency and bottleneck
	// attribution.
	Pipeline pipeline.Result
	// Stages attributes the scan's measured wall-clock to its stages
	// (flash-read, scan-decode, fill) — one span per shard per stage,
	// aggregated by internal/obs. This is where the host actually spent
	// time running the functional model, as opposed to the modeled
	// FlashRead/Decode device times above.
	Stages []obs.StageTiming
}

// StageTable renders the measured stage attribution as an aligned text
// table — what `sage instorage` prints after a scan.
func (r *Result) StageTable() string { return obs.StageTable(r.Stages) }

// ServiceTimes returns the per-shard service times in dispatch order —
// the durations to feed bench.ShardMakespan.
func (r *Result) ServiceTimes() []time.Duration {
	out := make([]time.Duration, len(r.PerShard))
	for i, s := range r.PerShard {
		out[i] = s.Service
	}
	return out
}

// HomeChannels returns each shard's home channel in dispatch order.
func (r *Result) HomeChannels() []int {
	out := make([]int, len(r.PerShard))
	for i, s := range r.PerShard {
		out[i] = s.Channel
	}
	return out
}

// DecodeBound returns the shards whose scan-unit decode exceeds their
// flash read — empty whenever the engine is NAND-bound (§8.2: unit
// throughput "is already sufficient because SAGe's accelerator
// operations are bottlenecked by the NAND flash read throughput").
func (r *Result) DecodeBound() []int {
	var out []int
	for _, s := range r.PerShard {
		if s.Decode > s.FlashRead {
			out = append(out, s.Shard)
		}
	}
	return out
}

// Scan streams every shard through its channel's scan unit (scanShard)
// and schedules the per-shard service times.
func (p *Placed) Scan() (*Result, error) {
	n := p.C.NumShards()
	res := &Result{
		Name:     p.Name,
		Channels: p.eng.Channels(),
		PerShard: make([]ShardTiming, n),
	}
	reads := make([]int, n)
	bases := make([]int64, n)
	comp := make([]int64, n)
	uncomp := make([]int64, n)
	tr := obs.NewTrace(p.Name)
	var text []byte
	for i := 0; i < n; i++ {
		var st ShardTiming
		var err error
		text, st, err = p.scanShard(tr, i, text[:0])
		if err != nil {
			return nil, err
		}
		for rest := text; len(rest) > 0; reads[i]++ {
			var r fastq.TextRecord
			if r, rest, err = fastq.NextRecord(rest); err != nil {
				return nil, fmt.Errorf("instorage: shard %d: %w", i, err)
			}
			bases[i] += int64(len(r.Seq))
		}
		res.PerShard[i] = st
		res.Reads += reads[i]
		res.CompressedBytes += st.CompressedBytes
		res.OutputBytes += st.OutputBytes
		comp[i] = st.CompressedBytes
		uncomp[i] = st.OutputBytes
	}
	var err error
	res.ChannelMakespan, err = hw.ChannelMakespan(res.ServiceTimes(), res.HomeChannels(), res.Channels)
	if err != nil {
		return nil, fmt.Errorf("instorage: %w", err)
	}
	batches, err := pipeline.MakeShardBatches(reads, bases, comp, uncomp)
	if err != nil {
		return nil, fmt.Errorf("instorage: %w", err)
	}
	res.Pipeline, err = pipeline.Run(batches, []pipeline.Stage{
		{Name: "flash-read", Time: func(b pipeline.Batch) time.Duration {
			return res.PerShard[b.Index].FlashRead
		}},
		{Name: "scan-decode", Time: func(b pipeline.Batch) time.Duration {
			return res.PerShard[b.Index].Decode
		}},
	})
	if err != nil {
		return nil, fmt.Errorf("instorage: %w", err)
	}
	res.Stages = tr.Stages()
	return res, nil
}

// scanShard streams shard i through its home channel's scan unit: the
// payload is read back from the device, then verified against the
// index's crc32, rendered to FASTQ text by the same Scan/Read-
// Construction logic the hardware computes and count-checked — all by
// shard.AppendBlockFASTQ, the container's own read path, appending to
// dst — and timed with the per-shard service law. Measured wall-clock
// goes to tr as one "flash-read" and one "scan-decode" span.
func (p *Placed) scanShard(tr *obs.Trace, i int, dst []byte) ([]byte, ShardTiming, error) {
	fsp := tr.StartSpan("flash-read")
	blk, flashTime, err := p.eng.Dev.ReadShard(p.Name, i)
	if err != nil {
		return dst, ShardTiming{}, fmt.Errorf("instorage: %w", err)
	}
	fsp.End()
	dsp := tr.StartSpan("scan-decode")
	text, err := p.C.AppendBlockFASTQ(dst, i, blk)
	if err != nil {
		return dst, ShardTiming{}, fmt.Errorf("instorage: shard %d read from flash: %w", i, err)
	}
	dsp.End()
	pl := p.Placement.Shards[i]
	return text, ShardTiming{
		Shard:           i,
		Channel:         pl.Channel,
		Pages:           pl.Pages,
		CompressedBytes: int64(len(blk)),
		OutputBytes:     int64(len(text)),
		FlashRead:       flashTime,
		Decode:          p.eng.TP.UnitDecodeTime(int64(len(blk))),
		Service:         p.eng.TP.ShardServiceTime(flashTime, int64(len(blk))),
	}, nil
}
