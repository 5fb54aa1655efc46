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
// a model table on a pool miss, the per-read slice headers, an error.
const fuzzAllocSlack = 64 << 10

// FuzzDecompress drives Decompress over arbitrary stream bytes and two
// arbitrary read lengths. The invariants: never panic; allocate no more
// than the scores asked for plus a constant, whatever the lengths claim;
// accept exactly the streams the bit-at-a-time oracle consumes to their
// last byte, with the oracle's scores; and round-trip, exactly and only
// at its own size, anything Compress writes from the same bytes.
func FuzzDecompress(f *testing.F) {
	rng := rand.New(rand.NewSource(29))
	quals, _ := randomReads(rng, fillNormal, 2, func() int { return 150 })
	valid, err := Compress(quals)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid, uint16(150), uint16(150))
	f.Add(valid[:len(valid)-3], uint16(150), uint16(150))
	f.Add(append(valid[:len(valid):len(valid)], 0), uint16(150), uint16(150))
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
		if len(data) >= 8 {
			if n := binary.LittleEndian.Uint64(data); n <= uint64(len(data)-8) && uint64(total) <= maxScoresPerByte*n {
				body := data[8 : 8+n]
				want, pos := decodeBoth(t, body, lengths)
				if accept = pos == len(body); accept && err == nil {
					for r := range want {
						if !bytes.Equal(got[r], want[r]) {
							t.Fatalf("read %d differs from the oracle's", r)
						}
					}
				}
			}
		}
		if accept != (err == nil) {
			t.Fatalf("oracle accepts: %v, Decompress: %v", accept, err)
		}

		// The same bytes as scores: two reads, split at a.
		scores := make([]byte, len(data))
		for i, c := range data {
			scores[i] = c % treeNodes
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
		// The decoder asks for every byte Compress wrote, so one fewer
		// is noticed however the scores then come out.
		binary.LittleEndian.PutUint64(enc, uint64(len(enc)-9))
		if _, err := Decompress(enc[:len(enc)-1], []int{cut, len(scores) - cut}); err == nil {
			t.Fatal("a stream cut by one byte still decodes")
		}
	})
}

// FuzzCompressKernel splits arbitrary bytes into two reads at cut. With
// every byte folded into the alphabet, the kernel and the bit-at-a-time
// oracle agree read by read, Compress writes the oracle's stream and
// Decompress returns the reads; the bytes as they came are rejected
// exactly when one exceeds the alphabet.
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
			scores[i] = b % treeNodes
		}
		if _, err := Compress([][]byte{raw[:c], raw[c:]}); legal != (err == nil) {
			t.Fatalf("scores within the alphabet: %v, Compress: %v", legal, err)
		}
		in := [][]byte{scores[:c], scores[c:]}
		body := encodeBoth(t, freshEncoder, in)
		data, err := Compress(in)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data[8:], body) {
			t.Fatal("Compress and the kernel write different streams")
		}
		out, err := Decompress(data, []int{c, len(scores) - c})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out[0], in[0]) || !bytes.Equal(out[1], in[1]) {
			t.Fatal("round trip changed the scores")
		}
	})
}
