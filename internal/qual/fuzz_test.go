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
// error. Kind-1 and kind-2 tables come from the decoders free list,
// which a first decode fills once per process.
const fuzzAllocSlack = 64 << 10

// FuzzDecompress drives Decompress over arbitrary stream bytes of any
// kind and two arbitrary read lengths. The invariants: never panic;
// allocate no more than the scores asked for plus a constant, whatever
// the lengths claim; accept exactly the streams the reference accepts —
// for kind 0 the bit-at-a-time oracle consuming them to their last
// byte, for kinds 1 and 2 refDecode — with the reference's scores; and
// round-trip, exactly and only at its own lengths, anything Compress
// and the kind-1 encoder write from the same bytes.
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
	kind1, err := kind1Compress(quals)
	if err != nil {
		f.Fatal(err)
	}
	// The first decode of a process allocates a decoder for the free
	// list; the bound below is for every decode after it.
	if _, err := Decompress(valid, []int{150, 150}); err != nil {
		f.Fatal(err)
	}
	for _, s := range [][]byte{valid, legacy, kind1} {
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
				case kindRANS, kindRANS4:
					lanes := 1
					if kind == kindRANS4 {
						lanes = ransLanes
					}
					var rerr error
					want, rerr = refDecode(body, lengths, lanes)
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
		for _, compress := range []func([][]byte) ([]byte, error){Compress, kind1Compress} {
			enc, err := compress(in)
			if err != nil {
				t.Fatal(err)
			}
			out, err := Decompress(enc, []int{cut, len(scores) - cut})
			if err != nil {
				t.Fatalf("a stream of kind %d the encoder wrote: %v", enc[7], err)
			}
			if !bytes.Equal(out[0], in[0]) || !bytes.Equal(out[1], in[1]) {
				t.Fatalf("kind %d: round trip changed the scores", enc[7])
			}
			// One score more or fewer is noticed, and so is one byte
			// fewer: the decoder asks for every byte the encoder wrote.
			if _, err := Decompress(enc, []int{cut, len(scores) - cut + 1}); err == nil {
				t.Fatalf("kind %d: a stream decodes one score more than was written", enc[7])
			}
			fewer := []int{cut, len(scores) - cut - 1}
			if cut == len(scores) {
				fewer = []int{cut - 1, 0}
			}
			if len(scores) > 0 {
				if _, err := Decompress(enc, fewer); err == nil {
					t.Fatalf("kind %d: a stream decodes one score fewer than was written", enc[7])
				}
			}
			binary.LittleEndian.PutUint64(enc, uint64(enc[7])<<lengthBits|uint64(len(enc)-9))
			if _, err := Decompress(enc[:len(enc)-1], []int{cut, len(scores) - cut}); err == nil {
				t.Fatalf("kind %d: a stream cut by one byte still decodes", enc[7])
			}
		}
	})
}

// FuzzCompressKernel splits arbitrary bytes into two reads at cut. The
// bytes as they came are rejected exactly when one exceeds the
// alphabet. With every byte folded into it: Compress and the kind-1
// encoder write what the reference encoder writes under the tables they
// declare, tables that obey the reader rules; the kind-0 kernel and its
// bit-at-a-time oracle agree read by read; and Decompress returns the
// reads from the streams of all three kinds.
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
		for _, compress := range []func([][]byte) ([]byte, error){Compress, kind1Compress, legacyCompress} {
			if _, err := compress([][]byte{raw[:c], raw[c:]}); legal != (err == nil) {
				t.Fatalf("scores within the alphabet: %v, the encoder: %v", legal, err)
			}
		}
		in := [][]byte{scores[:c], scores[c:]}
		lengths := []int{c, len(scores) - c}
		var streams [][]byte
		for _, kind := range []struct {
			compress func([][]byte) ([]byte, error)
			start    []uint32
		}{{Compress, kind2Start}, {kind1Compress, []uint32{ransL}}} {
			data, err := kind.compress(in)
			if err != nil {
				t.Fatal(err)
			}
			tabs, _, err := refParse(data[8:])
			if err != nil {
				t.Fatalf("kind %d: the encoder wrote tables that break a rule: %v", data[7], err)
			}
			if !bytes.Equal(data, refStream(&tabs, in, kind.start...)) {
				t.Fatalf("kind %d: the encoder and the reference encoder write different streams", data[7])
			}
			streams = append(streams, data)
		}
		body := encodeBoth(t, freshEncoder, in)
		streams = append(streams, append(binary.LittleEndian.AppendUint64(nil, uint64(len(body))), body...))
		for _, stream := range streams {
			out, err := Decompress(stream, lengths)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out[0], in[0]) || !bytes.Equal(out[1], in[1]) {
				t.Fatalf("kind %d: round trip changed the scores", stream[7])
			}
		}
	})
}
