package fastq

import (
	"bytes"
	"compress/gzip"
	"io"
	"strings"
	"testing"

	"sage/internal/pargz"
)

const sniffFASTQ = "@r1\nACGT\n+\nIIII\n@r2\nTTGG\n+\nFFFF\n"

func gzipBytes(t *testing.T, chunks ...string) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, c := range chunks {
		zw := gzip.NewWriter(&buf)
		if _, err := zw.Write([]byte(c)); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestSniffReaderPlain(t *testing.T) {
	r, err := Sniff(strings.NewReader(sniffFASTQ), SniffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != sniffFASTQ {
		t.Fatalf("plain stream altered:\n%q", got)
	}
}

func TestSniffReaderGzip(t *testing.T) {
	r, err := Sniff(bytes.NewReader(gzipBytes(t, sniffFASTQ)), SniffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != sniffFASTQ {
		t.Fatalf("gzip stream decoded wrong:\n%q", got)
	}
}

// Multi-member gzip (bgzip, concatenated lanes) must decode across
// member boundaries, not stop at the first one.
func TestSniffReaderMultiMemberGzip(t *testing.T) {
	half := len(sniffFASTQ) / 2
	data := gzipBytes(t, sniffFASTQ[:half], sniffFASTQ[half:])
	r, err := Sniff(bytes.NewReader(data), SniffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != sniffFASTQ {
		t.Fatalf("multi-member gzip decoded wrong:\n%q", got)
	}
}

// Streams too short to hold the magic (empty or one byte) pass through;
// the FASTQ scanner decides what they mean.
func TestSniffReaderShort(t *testing.T) {
	for _, in := range []string{"", "@", "\x1f"} {
		r, err := Sniff(strings.NewReader(in), SniffOptions{})
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		got, err := io.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != in {
			t.Fatalf("%q passed through as %q", in, got)
		}
	}
}

// A corrupt stream that starts with the magic but is not gzip fails at
// sniff time with the gzip error, not downstream with a parse error.
func TestSniffReaderBadGzip(t *testing.T) {
	if _, err := Sniff(strings.NewReader("\x1f\x8bnot really gzip"), SniffOptions{}); err == nil {
		t.Fatal("bad gzip header accepted")
	}
}

// PGZ1 (gzipc's private framing) is not an ingest format: Sniff passes
// it through untouched like any other non-gzip bytes, and the scanner
// rejects it as malformed FASTQ.
func TestSniffPGZ1(t *testing.T) {
	var member bytes.Buffer
	zw := gzip.NewWriter(&member)
	zw.Write([]byte(strings.Repeat(sniffFASTQ, 64)))
	zw.Close()
	in := append([]byte("PGZ1\x80\x20\x01\x40"), member.Bytes()...)

	r, err := Sniff(bytes.NewReader(in), SniffOptions{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer CloseSniffed(r)
	if _, ok := r.(io.Closer); ok {
		t.Fatal("PGZ1 input was routed to a decompressor")
	}
	if _, err := Parse(r); err == nil {
		t.Fatal("PGZ1 bytes parsed as FASTQ")
	}
}

// A truncated gzip input surfaces through the scanning pipeline as a
// contextual error naming the input file and a compressed offset —
// never a silent short read ending in a clean EOF. The fixture is
// BGZF with record-aligned blocks, so the bytes decoded before the
// damage parse cleanly and the decode error itself reaches the
// scanner through the member-parallel path.
func TestSniffTruncatedGzipSurfacesThroughScanner(t *testing.T) {
	payload := strings.Repeat(sniffFASTQ, 2048)
	var full bytes.Buffer
	w, err := pargz.NewWriterLevel(&full, gzip.DefaultCompression, 64*len(sniffFASTQ))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte(payload)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	members, err := pargz.SplitMembers(full.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	cut := len(members[0]) + len(members[1]) + len(members[2])/2
	r, err := Sniff(bytes.NewReader(full.Bytes()[:cut]), SniffOptions{Name: "lane1.fq.gz"})
	if err != nil {
		t.Fatal(err)
	}
	defer CloseSniffed(r)
	br := NewBatchReader(r, 64)
	for {
		_, err = br.Next()
		if err != nil {
			break
		}
	}
	if err == io.EOF {
		t.Fatal("truncated gzip ingest ended in a clean EOF — silent short read")
	}
	for _, want := range []string{"lane1.fq.gz", "offset"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("scanner error %q does not mention %q", err, want)
		}
	}
}

// The same contract for a generic single-member gzip cut at an
// arbitrary byte: the decoded prefix ends mid-record, and the decode
// error (file + offset) must win over the scanner's own
// truncated-record guess.
func TestSniffTruncatedGzipMidRecord(t *testing.T) {
	payload := strings.Repeat(sniffFASTQ, 2048)
	full := gzipBytes(t, payload)
	r, err := Sniff(bytes.NewReader(full[:len(full)/2]), SniffOptions{Name: "lane2.fq.gz"})
	if err != nil {
		t.Fatal(err)
	}
	defer CloseSniffed(r)
	br := NewBatchReader(r, 64)
	for {
		_, err = br.Next()
		if err != nil {
			break
		}
	}
	if err == io.EOF {
		t.Fatal("truncated gzip ingest ended in a clean EOF — silent short read")
	}
	for _, want := range []string{"lane2.fq.gz", "offset"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("scanner error %q does not mention %q", err, want)
		}
	}
}

// Gzipped input scans to the same records as its plain-text form.
func TestSniffReaderScansRecords(t *testing.T) {
	r, err := Sniff(bytes.NewReader(gzipBytes(t, sniffFASTQ)), SniffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	br := NewBatchReader(r, 16)
	b, err := br.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Records) != 2 || b.Records[0].Header != "r1" || b.Records[1].Header != "r2" {
		t.Fatalf("scanned records: %+v", b.Records)
	}
	if _, err := br.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}
