package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sage/internal/core"
	"sage/internal/fastq"
	"sage/internal/gzipc"
	"sage/internal/pargz"
	"sage/internal/shard"
)

// framings are the input encodings the ingest path sniffs by magic.
var framings = []struct {
	name   string
	encode func(t *testing.T, plain []byte) []byte
}{
	{"plain", func(t *testing.T, plain []byte) []byte { return plain }},
	{"gzip", func(t *testing.T, plain []byte) []byte {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		if _, err := zw.Write(plain); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}},
	{"bgzf", func(t *testing.T, plain []byte) []byte {
		var buf bytes.Buffer
		zw, err := pargz.NewWriterLevel(&buf, gzip.DefaultCompression, 8<<10)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := zw.Write(plain); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}},
}

// cliFixture is one simulated run laid out the three ways the CLI
// ingests it. want is what a decode must reproduce: the inputs
// concatenated (mates interleaved) in command-line order.
type cliFixture struct {
	ref    string
	shapes []cliShape
}

type cliShape struct {
	name  string
	flags []string
	files []string // base names
	texts [][]byte // plain FASTQ per file
	want  []byte
}

func newCLIFixture(t *testing.T, dir string) *cliFixture {
	t.Helper()
	rs, ref, err := simulateSet(false, 20_000, 600, 3)
	if err != nil {
		t.Fatal(err)
	}
	fx := &cliFixture{ref: filepath.Join(dir, "ref.txt")}
	if err := os.WriteFile(fx.ref, []byte(ref.String()+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	text := func(recs []fastq.Record) []byte { return (&fastq.ReadSet{Records: recs}).Bytes() }
	var r1, r2, mates []fastq.Record
	for i := 0; i+1 < len(rs.Records); i += 2 {
		a, b := rs.Records[i].Clone(), rs.Records[i+1].Clone()
		a.Header, b.Header = fmt.Sprintf("p.%d/1", i/2), fmt.Sprintf("p.%d/2", i/2)
		r1, r2, mates = append(r1, a), append(r2, b), append(mates, a, b)
	}
	fx.shapes = []cliShape{
		{name: "single", files: []string{"x.fq"},
			texts: [][]byte{rs.Bytes()}, want: rs.Bytes()},
		// 360 + 240 reads at 100 reads/shard: both lanes end in a short
		// tail shard.
		{name: "multi", files: []string{"lane1.fq", "lane2.fq"},
			texts: [][]byte{text(rs.Records[:360]), text(rs.Records[360:])}, want: rs.Bytes()},
		{name: "paired", flags: []string{"-paired"}, files: []string{"run_R1.fq", "run_R2.fq"},
			texts: [][]byte{text(r1), text(r2)}, want: text(mates)},
	}
	return fx
}

// TestIngestMatrix drives compress and recompress over {single,
// multi-file, paired} × {plain, generic gzip, BGZF} × {identity,
// -reorder} and decodes every container back. -reorder + decompress
// -original-order must reproduce the input byte for byte; identity
// order reproduces the input's records (the codec stores each shard
// position-sorted, so that path is set-equal — what `sage verify`
// checks — and byte-equal in size). The input framing must never show
// in the container, and recompress must write what compress writes.
func TestIngestMatrix(t *testing.T) {
	dir := t.TempDir()
	fx := newCLIFixture(t, dir)
	for _, sh := range fx.shapes {
		for _, order := range []string{"identity", "reorder"} {
			// containers[command] is the first framing's container; every
			// other framing must reproduce it.
			containers := map[string][]byte{}
			for _, fr := range framings {
				in := filepath.Join(dir, sh.name, fr.name)
				if err := os.MkdirAll(in, 0o755); err != nil {
					t.Fatal(err)
				}
				var inputs []string
				for i, f := range sh.files {
					// Same base name under every framing: the manifest
					// records it, and sniffing goes by magic, not extension.
					p := filepath.Join(in, f)
					enc := fr.encode(t, sh.texts[i])
					if fr.name == "bgzf" {
						// Enough members that the member-parallel tier
						// keeps several decode workers busy at once.
						if m, err := pargz.SplitMembers(enc); err != nil || len(m) < 8 {
							t.Fatalf("%s/%s: BGZF input holds %d members (err %v), want >= 8", sh.name, f, len(m), err)
						}
					}
					if err := os.WriteFile(p, enc, 0o644); err != nil {
						t.Fatal(err)
					}
					inputs = append(inputs, p)
				}
				for _, cmd := range []struct {
					name string
					run  func([]string) error
				}{{"compress", cmdCompress}, {"recompress", cmdRecompress}} {
					name := fmt.Sprintf("%s/%s/%s/%s", sh.name, fr.name, order, cmd.name)
					out := filepath.Join(in, order+"."+cmd.name+".sage")
					args := append([]string{"-ref", fx.ref, "-shard-reads", "100", "-threads", "2", "-out", out}, sh.flags...)
					dec := []string{"-in", out, "-out", out + ".fq", "-threads", "2"}
					if order == "reorder" {
						args = append(args, "-reorder", "-sort-mem", "1", "-tmpdir", in)
						dec = append(dec, "-original-order", "-sort-mem", "1", "-tmpdir", in)
					}
					if err := cmd.run(append(args, inputs...)); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if err := cmdDecompress(dec); err != nil {
						t.Fatalf("%s: decompress: %v", name, err)
					}
					got, err := os.ReadFile(out + ".fq")
					if err != nil {
						t.Fatal(err)
					}
					if order == "reorder" {
						if !bytes.Equal(got, sh.want) {
							t.Fatalf("%s: -original-order output differs from the input (%d vs %d bytes)", name, len(got), len(sh.want))
						}
					} else {
						a, err := fastq.Parse(bytes.NewReader(got))
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						b, _ := fastq.Parse(bytes.NewReader(sh.want))
						if len(got) != len(sh.want) || !fastq.Equivalent(a, b) {
							t.Fatalf("%s: decoded reads differ from the input", name)
						}
					}
					data, err := os.ReadFile(out)
					if err != nil {
						t.Fatal(err)
					}
					if first, ok := containers[cmd.name]; !ok {
						containers[cmd.name] = data
					} else if !bytes.Equal(first, data) {
						t.Fatalf("%s: container differs from the %s-input one", name, framings[0].name)
					}
				}
			}
			// recompress x.fq.gz writes what compress x.fq writes — with
			// one intended exception: a single input is one anonymous
			// stream to compress and a one-file manifest to recompress.
			same := bytes.Equal(containers["compress"], containers["recompress"])
			if want := sh.name != "single"; same != want {
				t.Fatalf("%s/%s: compress and recompress containers identical = %v, want %v", sh.name, order, same, want)
			}
			if sh.name == "single" {
				for cmd, wantSources := range map[string]int{"compress": 0, "recompress": 1} {
					c, err := shard.Parse(containers[cmd])
					if err != nil {
						t.Fatal(err)
					}
					if len(c.Index.Sources) != wantSources {
						t.Fatalf("single/%s: %s recorded %d sources, want %d", order, cmd, len(c.Index.Sources), wantSources)
					}
				}
			}
		}
	}
	leftovers, _ := filepath.Glob(filepath.Join(dir, "*", "*", "*.tmp"))
	if len(leftovers) > 0 {
		t.Fatalf("temp files left behind: %v", leftovers)
	}
}

// TestPGZ1InputRejected: gzipc's private PGZ1 framing is not an ingest
// format. It is not sniffed as compressed, so the FASTQ scanner rejects
// it, naming the file; no container (or temp file) is left.
func TestPGZ1InputRejected(t *testing.T) {
	dir := t.TempDir()
	fx := newCLIFixture(t, dir)
	pg, err := gzipc.Compress(fx.shapes[0].want, gzipc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(dir, "reads.pgz")
	if err := os.WriteFile(in, pg, 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "reads.sage")
	err = cmdRecompress([]string{"-ref", fx.ref, "-out", out, in})
	if err == nil || !strings.Contains(err.Error(), "fastq: file reads.pgz") {
		t.Fatalf("recompress of a PGZ1 input: err = %v, want a FASTQ parse error naming reads.pgz", err)
	}
	for _, p := range []string{out, out + ".tmp"} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("%s exists after a failed recompress", p)
		}
	}
}

// TestDenovoPublishesCrashSafely: -denovo containers (sharded and
// single-block) go through writeContainer like every other — temp file,
// fsync, rename — so they leave no *.tmp behind, and a run that cannot
// create its temp file fails without touching an existing output.
func TestDenovoPublishesCrashSafely(t *testing.T) {
	dir := t.TempDir()
	fx := newCLIFixture(t, dir)
	in := filepath.Join(dir, "x.fq")
	if err := os.WriteFile(in, fx.shapes[0].want, 0o644); err != nil {
		t.Fatal(err)
	}
	want, _ := fastq.Parse(bytes.NewReader(fx.shapes[0].want))
	for _, shardReads := range []string{"100", "0"} {
		out := filepath.Join(dir, "denovo"+shardReads+".sage")
		args := []string{"-denovo", "-shard-reads", shardReads, "-out", out, in}
		if err := cmdCompress(args); err != nil {
			t.Fatalf("-shard-reads %s: %v", shardReads, err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if sharded := shard.IsContainer(data); sharded != (shardReads != "0") || (!sharded && !core.IsContainer(data)) {
			t.Fatalf("-shard-reads %s wrote the wrong container kind", shardReads)
		}
		if err := cmdDecompress([]string{"-in", out, "-out", out + ".fq"}); err != nil {
			t.Fatal(err)
		}
		got, err := readFASTQ(out + ".fq")
		if err != nil {
			t.Fatal(err)
		}
		if !fastq.Equivalent(got, want) {
			t.Fatalf("-shard-reads %s: decoded reads differ from the input", shardReads)
		}
		if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) > 0 {
			t.Fatalf("-shard-reads %s left %v behind", shardReads, tmps)
		}
		// Block the temp path: the write must fail there, before the
		// published container is opened for writing.
		if err := os.Mkdir(out+".tmp", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := cmdCompress(args); err == nil {
			t.Fatalf("-shard-reads %s: compress succeeded with its temp path blocked", shardReads)
		}
		if after, err := os.ReadFile(out); err != nil || !bytes.Equal(after, data) {
			t.Fatalf("-shard-reads %s: a failed run clobbered the existing container", shardReads)
		}
		if err := os.Remove(out + ".tmp"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBadInputsFailCleanly: an input that cannot be opened, or two
// inputs that would share a manifest name, end compress and recompress
// with the open or usage error — no panic from the half-built ingest,
// and no container or temp file left behind.
func TestBadInputsFailCleanly(t *testing.T) {
	dir := t.TempDir()
	fx := newCLIFixture(t, dir)
	in := filepath.Join(dir, "x.fq")
	dup := filepath.Join(dir, "lane", "x.fq")
	if err := os.MkdirAll(filepath.Dir(dup), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{in, dup} {
		if err := os.WriteFile(p, fx.shapes[0].want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	missing := filepath.Join(dir, "nonexistent.fq")
	out := filepath.Join(dir, "x.sage")
	for _, tc := range []struct {
		name   string
		run    func([]string) error
		inputs []string
		usage  bool
		want   string
	}{
		{"compress/missing", cmdCompress, []string{missing}, false, "open " + missing},
		{"recompress/missing", cmdRecompress, []string{missing}, false, "open " + missing},
		{"compress/missing-second", cmdCompress, []string{in, missing}, false, "open " + missing},
		{"compress/duplicate-names", cmdCompress, []string{in, dup}, true, `both be recorded as "x.fq"`},
		{"recompress/duplicate-names", cmdRecompress, []string{in, dup}, true, `both be recorded as "x.fq"`},
	} {
		err := tc.run(append([]string{"-ref", fx.ref, "-out", out}, tc.inputs...))
		if err == nil || !strings.Contains(err.Error(), tc.want) || isUsageError(err) != tc.usage {
			t.Fatalf("%s: err = %v, want an error containing %q (usage error: %v)", tc.name, err, tc.want, tc.usage)
		}
		for _, p := range []string{out, out + ".tmp"} {
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Fatalf("%s: %s exists after the failed run", tc.name, p)
			}
		}
	}
}
