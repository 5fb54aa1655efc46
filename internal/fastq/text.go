package fastq

import (
	"bytes"
	"errors"
)

// TextRecord is one record of FASTQ text as the decoder renders it
// (core.AppendFASTQ): Bytes holds its four lines, Seq and Qual its
// sequence and quality lines without their newlines. Qual is empty for
// a read stored without quality scores. All three alias the text.
type TextRecord struct {
	Bytes, Seq, Qual []byte
}

var errNotRecord = errors.New("fastq: text does not start with a whole four-line record")

// NextRecord splits the first record off text, FASTQ as the decoder
// renders it, and returns it with the text after it: a header line
// starting with '@', the bases, a lone '+', and a quality line that is
// empty or as long as the bases, each ending in '\n'. Anything else is
// an error, never a panic. Unlike Scanner it allocates and converts
// nothing and accepts blank quality lines: it reads text this module
// wrote, not any FASTQ.
func NextRecord(text []byte) (rec TextRecord, rest []byte, err error) {
	var lines [4][]byte
	rest = text
	for k := range lines {
		i := bytes.IndexByte(rest, '\n')
		if i < 0 {
			return TextRecord{}, text, errNotRecord
		}
		lines[k], rest = rest[:i], rest[i+1:]
	}
	if len(lines[0]) == 0 || lines[0][0] != '@' || string(lines[2]) != "+" ||
		len(lines[3]) != 0 && len(lines[3]) != len(lines[1]) {
		return TextRecord{}, text, errNotRecord
	}
	return TextRecord{Bytes: text[:len(text)-len(rest)], Seq: lines[1], Qual: lines[3]}, rest, nil
}
