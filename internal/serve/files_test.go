package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"testing"

	"sage/internal/fastq"
	"sage/internal/genome"
	"sage/internal/shard"
	"sage/internal/simulate"
)

// manifestContainer builds a container via multi-file ingest: the
// simulated read set split across the named lane files (single mode) or
// one R1/R2 pair (paired).
func manifestContainer(t testing.TB, nReads, shardReads int, paired bool) ([]byte, genome.Seq) {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	ref := genome.Random(rng, 20_000)
	donor, _ := genome.Donor(rng, ref, genome.HumanLikeProfile())
	rs, err := simulate.New(rng, donor).ShortReads(nReads, simulate.DefaultShortProfile())
	if err != nil {
		t.Fatal(err)
	}
	var mr *fastq.MultiReader
	if paired {
		r1, r2 := &fastq.ReadSet{}, &fastq.ReadSet{}
		for i := 0; i+1 < len(rs.Records); i += 2 {
			a, b := rs.Records[i], rs.Records[i+1]
			a.Header = fmt.Sprintf("p.%d/1", i/2)
			b.Header = fmt.Sprintf("p.%d/2", i/2)
			r1.Records = append(r1.Records, a)
			r2.Records = append(r2.Records, b)
		}
		mr, err = fastq.NewPairedReader([][2]fastq.NamedReader{{
			{Name: "run_R1.fq", R: bytes.NewReader(r1.Bytes())},
			{Name: "run_R2.fq", R: bytes.NewReader(r2.Bytes())},
		}}, shardReads)
	} else {
		cut := nReads * 2 / 3
		a := fastq.ReadSet{Records: rs.Records[:cut]}
		b := fastq.ReadSet{Records: rs.Records[cut:]}
		mr, err = fastq.NewMultiReader([]fastq.NamedReader{
			{Name: "lane1.fq", R: bytes.NewReader(a.Bytes())},
			{Name: "lane2.fq", R: bytes.NewReader(b.Bytes())},
		}, shardReads)
	}
	if err != nil {
		t.Fatal(err)
	}
	opt := shard.DefaultOptions(ref)
	opt.ShardReads = shardReads
	var buf bytes.Buffer
	if _, err := shard.CompressPipeline(mr, &buf, opt); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), ref
}

// TestManifestInShards checks /shards carries the manifest and per-shard
// file attribution for v3 containers.
func TestManifestInShards(t *testing.T) {
	data, _ := manifestContainer(t, 180, 50, false)
	_, ts := newTestServer(t, data, Config{})

	code, body := get(t, ts.URL+"/c/default/shards")
	if code != http.StatusOK {
		t.Fatalf("/c/default/shards: status %d: %s", code, body)
	}
	var listing indexListing
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatalf("/c/default/shards: %v\n%s", err, body)
	}
	// Identity-order containers carry the v4 version byte even though
	// the writer's FormatVersion is now 5 (reorder-capable).
	if listing.FormatVersion != 4 {
		t.Fatalf("format_version = %d, want 4", listing.FormatVersion)
	}
	if len(listing.Files) != 2 || listing.Files[0].File != "lane1.fq" || listing.Files[1].File != "lane2.fq" {
		t.Fatalf("files = %+v", listing.Files)
	}
	if listing.Files[0].Reads != 120 || listing.Files[1].Reads != 60 {
		t.Fatalf("per-file reads = %+v", listing.Files)
	}
	reads := 0
	for _, e := range listing.Index {
		if e.File != "lane1.fq" && e.File != "lane2.fq" {
			t.Fatalf("index entry without file attribution: %+v", e)
		}
		reads += e.Reads
	}
	if reads != 180 {
		t.Fatalf("index reads sum to %d, want 180", reads)
	}
}

// TestFilesEndpoints checks /files and /file/{name}/shards round-trip
// the manifest, including paired-end mate names.
func TestFilesEndpoints(t *testing.T) {
	data, _ := manifestContainer(t, 200, 64, true)
	s, ts := newTestServer(t, data, Config{})

	code, body := get(t, ts.URL+"/c/default/files")
	if code != http.StatusOK {
		t.Fatalf("/c/default/files: status %d: %s", code, body)
	}
	var files filesListing
	if err := json.Unmarshal(body, &files); err != nil {
		t.Fatalf("/c/default/files: %v\n%s", err, body)
	}
	if len(files.Files) != 1 {
		t.Fatalf("files = %+v", files)
	}
	f := files.Files[0]
	if f.File != "run_R1.fq+run_R2.fq" || f.Name != "run_R1.fq" || f.Mate != "run_R2.fq" || f.Reads != 200 {
		t.Fatalf("manifest entry = %+v", f)
	}
	if f.Shards == 0 || f.Bytes == 0 {
		t.Fatalf("per-file totals missing: %+v", f)
	}

	// The source is addressable by display name, R1 name, and R2 name.
	for _, name := range []string{"run_R1.fq+run_R2.fq", "run_R1.fq", "run_R2.fq"} {
		code, body := get(t, ts.URL+"/c/default/file/"+name+"/shards")
		if code != http.StatusOK {
			t.Fatalf("/c/default/file/%s/shards: status %d: %s", name, code, body)
		}
		var fl fileShardsListing
		if err := json.Unmarshal(body, &fl); err != nil {
			t.Fatalf("/c/default/file/%s/shards: %v", name, err)
		}
		if len(fl.Index) != f.Shards || fl.File.File != f.File {
			t.Fatalf("/c/default/file/%s/shards = %+v, want %d shards", name, fl, f.Shards)
		}
	}

	// Unknown file name is a 404.
	if code, _ := get(t, ts.URL+"/c/default/file/nope.fq/shards"); code != http.StatusNotFound {
		t.Fatalf("/c/default/file/nope.fq/shards: status %d, want 404", code)
	}
	if st := s.Stats(); st.FileReads != 4 {
		t.Fatalf("file_requests = %d, want 4", st.FileReads)
	}
}

// TestFilesWithoutManifest checks legacy (manifest-less) containers
// answer 404 on the file endpoints but keep serving everything else.
func TestFilesWithoutManifest(t *testing.T) {
	data, _, _ := testContainer(t, 100, 50)
	_, ts := newTestServer(t, data, Config{})

	for _, path := range []string{"/c/default/files", "/c/default/file/x.fq/shards"} {
		if code, body := get(t, ts.URL+path); code != http.StatusNotFound {
			t.Fatalf("%s: status %d (%s), want 404", path, code, body)
		}
	}
	code, body := get(t, ts.URL+"/c/default/shards")
	if code != http.StatusOK {
		t.Fatalf("/c/default/shards: status %d", code)
	}
	var listing indexListing
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatal(err)
	}
	if listing.Files != nil {
		t.Fatalf("manifest-less /shards grew files: %+v", listing.Files)
	}
	for _, e := range listing.Index {
		if e.File != "" {
			t.Fatalf("manifest-less index entry has file attribution: %+v", e)
		}
	}
}

// TestFileShardsServeReads checks a client can follow /file/{name}/shards
// to fetch exactly that file's reads.
func TestFileShardsServeReads(t *testing.T) {
	data, _ := manifestContainer(t, 180, 50, false)
	_, ts := newTestServer(t, data, Config{})

	code, body := get(t, ts.URL+"/c/default/file/lane2.fq/shards")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var fl fileShardsListing
	if err := json.Unmarshal(body, &fl); err != nil {
		t.Fatal(err)
	}
	reads := 0
	for _, e := range fl.Index {
		code, body := get(t, fmt.Sprintf("%s/c/default/shard/%d/reads", ts.URL, e.Shard))
		if code != http.StatusOK {
			t.Fatalf("shard %d: status %d", e.Shard, code)
		}
		rs, err := fastq.Parse(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("shard %d: %v", e.Shard, err)
		}
		reads += len(rs.Records)
	}
	if reads != fl.File.Reads || reads != 60 {
		t.Fatalf("fetched %d reads for lane2.fq, want %d (=60)", reads, fl.File.Reads)
	}
}
