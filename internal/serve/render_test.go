package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"sage/internal/genome"
	"sage/internal/shard"
	"sage/internal/simulate"
)

// TestReadsBodyMatchesRecords: a /reads body, cold, warm and over the
// cache budget, is byte for byte the text of the records DecompressShard
// decodes — for short and long reads, and without quality or headers.
func TestReadsBodyMatchesRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	ref := genome.Random(rng, 40_000)
	donor, _ := genome.Donor(rng, ref, genome.HumanLikeProfile())
	sim := simulate.New(rng, donor)
	short, err := sim.ShortReads(300, simulate.DefaultShortProfile())
	if err != nil {
		t.Fatal(err)
	}
	lp := simulate.DefaultLongProfile()
	lp.MeanLen, lp.MaxLen = 2000, 6000
	long, err := sim.LongReads(24, lp)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		long       bool
		shardReads int
		edit       func(*shard.Options)
	}{
		{"short", false, 64, nil},
		{"long", true, 5, nil},
		{"no-quality", false, 100, func(o *shard.Options) { o.Core.IncludeQuality = false }},
		{"no-header", false, 100, func(o *shard.Options) { o.Core.IncludeHeaders = false }},
	} {
		rs := short
		if tc.long {
			rs = long
		}
		opt := shard.DefaultOptions(ref)
		opt.ShardReads = tc.shardReads
		if tc.edit != nil {
			tc.edit(&opt)
		}
		data, _, err := shard.Compress(rs, opt)
		if err != nil {
			t.Fatal(err)
		}
		c, err := shard.Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []Config{{Workers: 2}, {Workers: 2, CacheBytes: 1}} {
			_, ts := newTestServer(t, data, cfg)
			for i := 0; i < c.NumShards(); i++ {
				want, err := c.DecompressShard(i, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, pass := range []string{"cold", "warm"} {
					code, body := get(t, fmt.Sprintf("%s/c/%s/shard/%d/reads", ts.URL, defaultName, i))
					if code != 200 || !bytes.Equal(body, want.Bytes()) {
						t.Fatalf("%s, cache %d, shard %d, %s: status %d, %d bytes, want the records' %d",
							tc.name, cfg.CacheBytes, i, pass, code, len(body), len(want.Bytes()))
					}
				}
			}
		}
	}
}
