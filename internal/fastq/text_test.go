package fastq

import (
	"bytes"
	"testing"

	"sage/internal/genome"
)

// textRecords covers what the decoder renders: scored and unscored
// reads, an empty read, an N, and a read without a name.
var textRecords = []Record{
	{Header: "r1 length=8", Seq: genome.MustFromString("ACGTACGG"), Qual: []byte{40, 40, 2, 0, 63, 30, 20, 10}},
	{Header: "r2", Seq: genome.MustFromString("GGCCN"), Qual: nil},
	{Header: "empty", Seq: genome.Seq{}, Qual: []byte{}},
	{Header: "", Seq: genome.MustFromString("TTTA"), Qual: []byte{5, 6, 7, 8}},
	{Header: "unscored-empty", Seq: genome.Seq{}},
}

// TestNextRecordWalksText: walking the text of records yields each
// record's bytes, letters and quality characters, whose statistics are
// the records', bit for bit.
func TestNextRecordWalksText(t *testing.T) {
	var text []byte
	for i := range textRecords {
		text = textRecords[i].AppendText(text)
	}
	rest := text
	for i := range textRecords {
		want := &textRecords[i]
		r, next, err := NextRecord(rest)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		rest = next
		if !bytes.Equal(r.Bytes, want.AppendText(nil)) {
			t.Fatalf("record %d: bytes %q", i, r.Bytes)
		}
		if !bytes.Equal(r.Seq, genome.AppendASCII(nil, want.Seq)) {
			t.Fatalf("record %d: sequence %q", i, r.Seq)
		}
		if len(r.Qual) != len(want.Qual) {
			t.Fatalf("record %d: %d quality characters, want %d", i, len(r.Qual), len(want.Qual))
		}
		gotAvg, gotOK := AvgPhred(r.Qual, QualityOffset)
		wantAvg, wantOK := AvgPhred(want.Qual, 0)
		if gotAvg != wantAvg || gotOK != wantOK {
			t.Fatalf("record %d: AvgPhred %v %v, want %v %v", i, gotAvg, gotOK, wantAvg, wantOK)
		}
		gotEE, gotOK := ExpectedError(r.Qual, QualityOffset)
		wantEE, wantOK := ExpectedError(want.Qual, 0)
		if gotEE != wantEE || gotOK != wantOK {
			t.Fatalf("record %d: ExpectedError %v %v, want %v %v", i, gotEE, gotOK, wantEE, wantOK)
		}
		if got, want := GCFraction(r.Seq, 'C', 'G'), GCFraction(want.Seq, genome.BaseC, genome.BaseG); got != want {
			t.Fatalf("record %d: GCFraction %v, want %v", i, got, want)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left after the last record", len(rest))
	}
}

// TestNextRecordRejects: text that does not start with a whole
// four-line record fails, and hands the text back untouched.
func TestNextRecordRejects(t *testing.T) {
	for _, bad := range []string{
		"@r\nACGT\n+\n!!!!",           // no final newline
		"@r\nACGT\n",                  // two lines
		"r\nACGT\n+\n!!!!\n",          // no '@'
		"\nACGT\n+\n!!!!\n",           // empty header line
		"@r\nACGT\n+r\n!!!!\n",        // separator with a name
		"@r\nACGT\n\n!!!!\n",          // empty separator
		"@r\nACGT\n+\n!!!\n",          // quality shorter than the bases
		"@r\nACGT\n+\n!!!!!\n",        // and longer
		"@r\nA\nC\n+\n!\n",            // a header with a newline in it
		"@r\r\nACGT\r\n+\r\n!!!!\r\n", // CRLF: the decoder never writes it
	} {
		_, rest, err := NextRecord([]byte(bad))
		if err == nil {
			t.Errorf("%q: accepted", bad)
		}
		if string(rest) != bad {
			t.Errorf("%q: rest %q", bad, rest)
		}
	}
}

// FuzzNextRecord walks arbitrary bytes: the walk never panics, each
// record lies at the front of what is left, and its sequence and
// quality lines are its second and fourth lines.
func FuzzNextRecord(f *testing.F) {
	var text []byte
	for i := range textRecords {
		text = textRecords[i].AppendText(text)
	}
	f.Add(text)
	f.Add([]byte("@r\nACGT\n+\n\n"))
	f.Add([]byte("@r\nACGT\n+\n!!!"))
	f.Add([]byte("@\n\n+\n\n@\n\n+\n\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rest := data
		for len(rest) > 0 {
			r, next, err := NextRecord(rest)
			if err != nil {
				if !bytes.Equal(next, rest) {
					t.Fatal("a failed step moved the walk")
				}
				return
			}
			if len(r.Bytes)+len(next) != len(rest) || !bytes.Equal(r.Bytes, rest[:len(r.Bytes)]) {
				t.Fatalf("record %q is not the front of %q", r.Bytes, rest)
			}
			lines := bytes.SplitAfter(r.Bytes, []byte{'\n'})
			if len(lines) != 5 || len(lines[4]) != 0 {
				t.Fatalf("record %q is not four lines", r.Bytes)
			}
			if !bytes.Equal(r.Seq, bytes.TrimSuffix(lines[1], []byte{'\n'})) ||
				!bytes.Equal(r.Qual, bytes.TrimSuffix(lines[3], []byte{'\n'})) {
				t.Fatalf("record %q: sequence %q, quality %q", r.Bytes, r.Seq, r.Qual)
			}
			if len(r.Qual) != 0 && len(r.Qual) != len(r.Seq) {
				t.Fatalf("record %q: %d quality characters for %d bases", r.Bytes, len(r.Qual), len(r.Seq))
			}
			rest = next
		}
	})
}
