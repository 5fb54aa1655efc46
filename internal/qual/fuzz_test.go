package qual

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"

	"sage/internal/fastq"
)

// fuzzAllocSlack is what one Decompress may allocate beyond its scores:
// the kind-0 model table on a pool miss, the per-read slice headers, an
// error. Kind-1 tables live on the stack.
const fuzzAllocSlack = 64 << 10

// FuzzDecompress drives Decompress over arbitrary stream bytes of either
// kind and two arbitrary read lengths. The invariants: never panic;
// allocate no more than the scores asked for plus a constant, whatever
// the lengths claim; accept exactly the streams the reference accepts —
// for kind 0 the bit-at-a-time oracle consuming them to their last
// byte, for kind 1 refDecodeRANS — with the reference's scores; and
// round-trip, exactly and only at its own lengths, anything Compress
// writes from the same bytes.
func FuzzDecompress(f *testing.F) {
	rng := rand.New(rand.NewSource(29))
	quals, _ := randomReads(rng, fillNormal, 2, func() int { return 150 })
	valid, err := Compress(quals)
	if err != nil {
		f.Fatal(err)
	}
	legacy, err := legacyCompress(quals)
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range [][]byte{valid, legacy} {
		f.Add(s, uint16(150), uint16(150))
		f.Add(s[:len(s)-3], uint16(150), uint16(150))
		f.Add(append(s[:len(s):len(s)], 0), uint16(150), uint16(150))
	}
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1}, uint16(1), uint16(0))

	f.Fuzz(func(t *testing.T, data []byte, a, b uint16) {
		lengths := []int{int(a), int(b)}
		total := int(a) + int(b)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := Decompress(data, lengths)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(total)+fuzzAllocSlack {
			t.Fatalf("%d bytes allocated for %d scores over %d stream bytes", grew, total, len(data))
		}
		accept := false
		var want [][]byte
		if len(data) >= 8 {
			word := binary.LittleEndian.Uint64(data)
			kind, n := word>>lengthBits, word&(1<<lengthBits-1)
			if n <= uint64(len(data)-8) && kind < uint64(len(maxScoresPerByte)) && uint64(total) <= uint64(maxScoresPerByte[kind])*n {
				body := data[8 : 8+n]
				switch kind {
				case kindBinary:
					var pos int
					want, pos = decodeBoth(t, body, lengths)
					accept = pos == len(body)
				case kindRANS:
					var rerr error
					want, rerr = refDecodeRANS(body, lengths)
					accept = rerr == nil
				}
			}
		}
		if accept != (err == nil) {
			t.Fatalf("the reference accepts: %v, Decompress: %v", accept, err)
		}
		for r := range got {
			if !bytes.Equal(got[r], want[r]) {
				t.Fatalf("read %d differs from the reference's", r)
			}
		}

		// The same bytes as scores: two reads, split at a.
		scores := make([]byte, len(data))
		for i, c := range data {
			scores[i] = c % numSymbols
		}
		cut := int(a) % (len(scores) + 1)
		in := [][]byte{scores[:cut], scores[cut:]}
		enc, err := Compress(in)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Decompress(enc, []int{cut, len(scores) - cut})
		if err != nil {
			t.Fatalf("a stream Compress wrote: %v", err)
		}
		if !bytes.Equal(out[0], in[0]) || !bytes.Equal(out[1], in[1]) {
			t.Fatal("round trip changed the scores")
		}
		// One score more or fewer is noticed, and so is one byte fewer:
		// the decoder asks for every byte Compress wrote.
		if _, err := Decompress(enc, []int{cut, len(scores) - cut + 1}); err == nil {
			t.Fatal("a stream decodes one score more than Compress wrote")
		}
		fewer := []int{cut, len(scores) - cut - 1}
		if cut == len(scores) {
			fewer = []int{cut - 1, 0}
		}
		if len(scores) > 0 {
			if _, err := Decompress(enc, fewer); err == nil {
				t.Fatal("a stream decodes one score fewer than Compress wrote")
			}
		}
		binary.LittleEndian.PutUint64(enc, kindRANS<<lengthBits|uint64(len(enc)-9))
		if _, err := Decompress(enc[:len(enc)-1], []int{cut, len(scores) - cut}); err == nil {
			t.Fatal("a stream cut by one byte still decodes")
		}
	})
}

// FuzzCompressKernel splits arbitrary bytes into two reads at cut. The
// bytes as they came are rejected exactly when one exceeds the
// alphabet. With every byte folded into it: Compress writes what the
// reference encoder writes under the tables Compress declares, tables
// that obey the reader rules; the kind-0 kernel and its bit-at-a-time
// oracle agree read by read; and Decompress returns the reads from the
// streams of both kinds.
func FuzzCompressKernel(f *testing.F) {
	rng := rand.New(rand.NewSource(31))
	quals, _ := randomReads(rng, fillNormal, 1, func() int { return 300 })
	f.Add(quals[0], uint16(150))
	f.Add(bytes.Repeat([]byte{40}, 4000), uint16(7))
	f.Add([]byte{0, 63, 64, 255}, uint16(2))
	f.Add([]byte{}, uint16(0))

	f.Fuzz(func(t *testing.T, raw []byte, cut uint16) {
		c := int(cut) % (len(raw) + 1)
		legal := true
		scores := make([]byte, len(raw))
		for i, b := range raw {
			legal = legal && b <= fastq.MaxQuality
			scores[i] = b % numSymbols
		}
		if _, err := Compress([][]byte{raw[:c], raw[c:]}); legal != (err == nil) {
			t.Fatalf("scores within the alphabet: %v, Compress: %v", legal, err)
		}
		in := [][]byte{scores[:c], scores[c:]}
		lengths := []int{c, len(scores) - c}
		data, err := Compress(in)
		if err != nil {
			t.Fatal(err)
		}
		tabs, _, _, err := refParse(data[8:])
		if err != nil {
			t.Fatalf("Compress wrote tables that break a rule: %v", err)
		}
		if !bytes.Equal(data, refStream(&tabs, in, ransL)) {
			t.Fatal("Compress and the reference encoder write different streams")
		}
		body := encodeBoth(t, freshEncoder, in)
		legacy := append(binary.LittleEndian.AppendUint64(nil, uint64(len(body))), body...)
		for _, stream := range [][]byte{data, legacy} {
			out, err := Decompress(stream, lengths)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out[0], in[0]) || !bytes.Equal(out[1], in[1]) {
				t.Fatal("round trip changed the scores")
			}
		}
	})
}
