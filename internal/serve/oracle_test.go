package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"sage/internal/fastq"
	"sage/internal/genome"
	"sage/internal/instorage"
	"sage/internal/reorder"
	"sage/internal/shard"
	"sage/internal/simulate"
	"sage/internal/ssd"
)

// oracleCase is one container of the record-reader differential.
type oracleCase struct {
	name string
	data []byte
}

// oracleCases: every committed golden container (format v1 to v5, the
// first three without zone maps), and containers written with and
// without quality, without headers, clump-reordered, and with options
// that ask not to embed the consensus (the writer embeds it all the
// same), over short reads with N bases in them.
func oracleCases(t *testing.T) []oracleCase {
	t.Helper()
	var cases []oracleCase
	for v := 1; v <= 5; v++ {
		name := fmt.Sprintf("golden_v%d.sage", v)
		data, err := os.ReadFile(filepath.Join("..", "shard", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, oracleCase{name: name, data: data})
	}
	rng := rand.New(rand.NewSource(37))
	ref := genome.Random(rng, 20_000)
	donor, _ := genome.Donor(rng, ref, genome.HumanLikeProfile())
	prof := simulate.DefaultShortProfile()
	prof.NRate = 0.01
	rs, err := simulate.New(rng, donor).ShortReads(300, prof)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		edit      func(*shard.Options)
		reordered bool
	}{
		{"scored", nil, false},
		{"no-quality", func(o *shard.Options) { o.Core.IncludeQuality = false }, false},
		{"no-header", func(o *shard.Options) { o.Core.IncludeHeaders = false }, false},
		{"reordered", nil, true},
		{"embed-off", func(o *shard.Options) { o.Core.EmbedConsensus = false }, false},
	} {
		opt := shard.DefaultOptions(ref)
		opt.ShardReads = 40
		if tc.edit != nil {
			tc.edit(&opt)
		}
		var src fastq.BatchSource = fastq.NewBatchReader(bytes.NewReader(rs.Bytes()), opt.ShardReads)
		if tc.reordered {
			st, err := reorder.NewStage(src, reorder.Config{Mode: reorder.ModeClump, BatchSize: opt.ShardReads})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			src = st
		}
		var buf bytes.Buffer
		if _, err := shard.CompressPipeline(src, &buf, opt); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		cases = append(cases, oracleCase{name: tc.name, data: buf.Bytes()})
	}
	return cases
}

// oraclePredicates derives one predicate per `sage filter` flag from
// the records, each at a value that occurs in them, plus the k-mer's
// reverse complement, a k-mer that holds an N and the empty predicate.
func oraclePredicates(recs []fastq.Record) []shard.Predicate {
	median := func(f func(*fastq.Record) (float64, bool)) float64 {
		var vs []float64
		for i := range recs {
			if v, ok := f(&recs[i]); ok {
				vs = append(vs, v)
			}
		}
		if len(vs) == 0 {
			return 1
		}
		slices.Sort(vs)
		return vs[len(vs)/2]
	}
	avg := func(r *fastq.Record) (float64, bool) { return fastq.AvgPhred(r.Qual, 0) }
	ee := func(r *fastq.Record) (float64, bool) { return fastq.ExpectedError(r.Qual, 0) }
	length := func(r *fastq.Record) (float64, bool) { return float64(len(r.Seq)), true }
	gc := func(r *fastq.Record) (float64, bool) {
		return fastq.GCFraction(r.Seq, genome.BaseC, genome.BaseG), len(r.Seq) > 0
	}
	kmer := recs[len(recs)/2].Seq
	kmer = kmer[:min(len(kmer), 12)].Clone()
	withN := genome.MustFromString("ACGN")
	for i := range recs {
		if at := bytes.IndexByte(recs[i].Seq, genome.BaseN); at >= 0 {
			lo := max(0, at-4)
			withN = recs[i].Seq[lo:min(len(recs[i].Seq), lo+9)].Clone()
			break
		}
	}
	return []shard.Predicate{
		{},
		{MinAvgPhred: median(avg)},
		{MaxEE: median(ee)},
		{MinLen: int(median(length))},
		{MaxLen: int(median(length))},
		{MinGC: median(gc)},
		{MaxGC: median(gc)},
		{Subseq: kmer},
		{Subseq: kmer.ReverseComplement()},
		{Subseq: withN},
	}
}

// queryURL renders p as /query parameters.
func queryURL(base, name string, p *shard.Predicate, count bool) string {
	q := url.Values{}
	float := func(key string, v float64) {
		if v > 0 {
			q.Set(key, strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	float("min-avgphred", p.MinAvgPhred)
	float("max-ee", p.MaxEE)
	float("min-gc", p.MinGC)
	float("max-gc", p.MaxGC)
	if p.MinLen > 0 {
		q.Set("min-len", strconv.Itoa(p.MinLen))
	}
	if p.MaxLen > 0 {
		q.Set("max-len", strconv.Itoa(p.MaxLen))
	}
	if len(p.Subseq) > 0 {
		q.Set("kmer", p.Subseq.String())
	}
	if count {
		q.Set("count", "1")
	}
	return base + "/c/" + name + "/query?" + q.Encode()
}

// decodeRecords is the record oracle: every shard of c decoded to
// records with DecompressShard, in shard order.
func decodeRecords(t *testing.T, c *shard.Container) *fastq.ReadSet {
	t.Helper()
	all := &fastq.ReadSet{}
	for i := range c.NumShards() {
		rs, err := c.DecompressShard(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		all.Records = append(all.Records, rs.Records...)
	}
	return all
}

// TestRecordReadersMatchOracle holds the three readers that match
// records in their shards' text — shard.Filter (`sage filter`), serve's
// /query (bodies and count=1) and instorage.FilterScan — to the record
// oracle: DecompressShard over every shard, then MatchRecord record by record, on every
// fixture and predicate, at 1 and 3 workers.
func TestRecordReadersMatchOracle(t *testing.T) {
	cases := oracleCases(t)
	for _, workers := range []int{1, 3} {
		named := make([]Named, len(cases))
		for k, oc := range cases {
			c, err := shard.Open(bytes.NewReader(oc.data), int64(len(oc.data)))
			if err != nil {
				t.Fatal(err)
			}
			named[k] = Named{Name: fmt.Sprintf("c%d", k), C: c}
		}
		s, err := NewMulti(named, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s)
		defer ts.Close()
		for k, oc := range cases {
			c := named[k].C
			all := decodeRecords(t, c)
			cfg := ssd.DefaultConfig()
			cfg.Geometry.BlocksPerPlane = 8
			cfg.Geometry.PagesPerBlock = 16
			cfg.Geometry.PageSize = 1 << 10
			dev, err := ssd.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			placed, err := instorage.New(dev).Place(oc.name, oc.data)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range oraclePredicates(all.Records) {
				name := fmt.Sprintf("%s workers=%d %s", oc.name, workers, p.String())
				want := &fastq.ReadSet{}
				for i := range all.Records {
					if p.MatchRecord(&all.Records[i]) {
						want.Records = append(want.Records, all.Records[i])
					}
				}
				wantBody := want.Bytes()

				var got bytes.Buffer
				st, err := c.Filter(&got, &p, workers)
				if err != nil {
					t.Fatalf("%s: Filter: %v", name, err)
				}
				if !bytes.Equal(got.Bytes(), wantBody) || st.ReadsMatched != len(want.Records) {
					t.Fatalf("%s: Filter matched %d records in %d bytes, the oracle %d in %d",
						name, st.ReadsMatched, got.Len(), len(want.Records), len(wantBody))
				}

				code, body := get(t, queryURL(ts.URL, named[k].Name, &p, false))
				if code != http.StatusOK || !bytes.Equal(body, wantBody) {
					t.Fatalf("%s: /query status %d, %d bytes, the oracle %d", name, code, len(body), len(wantBody))
				}
				code, body = get(t, queryURL(ts.URL, named[k].Name, &p, true))
				var sum querySummary
				if code != http.StatusOK || json.Unmarshal(body, &sum) != nil {
					t.Fatalf("%s: /query count=1 status %d: %s", name, code, body)
				}
				if sum.ReadsMatched != len(want.Records) || sum.ReadsScanned != st.ReadsScanned {
					t.Fatalf("%s: /query count=1 matched %d of %d, Filter and the oracle %d of %d",
						name, sum.ReadsMatched, sum.ReadsScanned, len(want.Records), st.ReadsScanned)
				}

				fr, err := placed.FilterScan(&p)
				if err != nil {
					t.Fatalf("%s: FilterScan: %v", name, err)
				}
				if fr.ReadsMatched != len(want.Records) || fr.ReadsScanned != st.ReadsScanned {
					t.Fatalf("%s: FilterScan matched %d of %d, Filter and the oracle %d of %d",
						name, fr.ReadsMatched, fr.ReadsScanned, len(want.Records), st.ReadsScanned)
				}
			}
		}
	}
}
