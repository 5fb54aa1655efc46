package pargz

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// stdlibMember is the member tier's decode before the kernel, kept as
// the oracle: compress/gzip over exactly one member, CRC checked at the
// stream's end, and no bytes allowed past the trailer.
func stdlibMember(comp []byte) ([]byte, error) {
	br := bytes.NewReader(comp)
	zr, err := gzip.NewReader(br)
	if err != nil {
		return nil, err
	}
	zr.Multistream(false)
	var out bytes.Buffer
	if _, err := out.ReadFrom(zr); err != nil {
		return nil, unexpectedEOF(err)
	}
	if err := zr.Close(); err != nil {
		return nil, err
	}
	if br.Len() != 0 {
		return nil, fmt.Errorf("%d bytes beyond the member trailer", br.Len())
	}
	return out.Bytes(), nil
}

// shortReadFASTQ builds n bytes of the benchmark's paired short-read
// text: "p.<pair>/1" headers, 150-base reads drawn from a 60 kb genome
// with rare substitutions, and Phred scores around 36.
func shortReadFASTQ(n int) []byte {
	rng := rand.New(rand.NewSource(11))
	genome := make([]byte, 60000)
	for i := range genome {
		genome[i] = "ACGT"[rng.Intn(4)]
	}
	var b bytes.Buffer
	for i := 0; b.Len() < n; i++ {
		fmt.Fprintf(&b, "@p.%d/1\n", i)
		at := rng.Intn(len(genome) - 150)
		for j := range 150 {
			c := genome[at+j]
			if rng.Intn(1000) == 0 {
				c = "ACGT"[rng.Intn(4)]
			}
			b.WriteByte(c)
		}
		b.WriteString("\n+\n")
		for range 150 {
			q := int(36 + 4*rng.NormFloat64())
			b.WriteByte(byte(33 + min(41, max(0, q))))
		}
		b.WriteByte('\n')
	}
	return b.Bytes()[:n]
}

// gzipMember writes data as one gzip member at level with hdr's fields.
func gzipMember(t testing.TB, data []byte, level int, hdr gzip.Header) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	zw.Header = hdr
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// withHeaderCRC sets FHCRC on a member compress/gzip wrote and inserts
// the header CRC-16 it then carries.
func withHeaderCRC(comp []byte) []byte {
	raw, _, _, err := memberParts(comp)
	if err != nil {
		panic(err)
	}
	hdr := append([]byte(nil), comp[:len(comp)-len(raw)-8]...)
	hdr[3] |= flgFHCRC
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(crc32.ChecksumIEEE(hdr)))
	return append(hdr, comp[len(comp)-len(raw)-8:]...)
}

// checkAgainstStdlib decodes comp with the kernel, into dst's storage,
// and with the oracle: equal bytes when the oracle succeeds, an error
// when it fails.
func checkAgainstStdlib(t *testing.T, dst, comp []byte) {
	t.Helper()
	want, werr := stdlibMember(comp)
	got, gerr := inflateMember(dst, comp)
	switch {
	case werr == nil && gerr != nil:
		t.Fatalf("kernel rejected a member compress/gzip decodes: %v", gerr)
	case werr == nil && !bytes.Equal(got, want):
		t.Fatalf("kernel decoded %d bytes, compress/gzip %d, and they differ", len(got), len(want))
	case werr != nil && gerr == nil:
		t.Fatalf("kernel accepted a member compress/gzip rejects (%v)", werr)
	}
}

// TestInflateMemberMatchesStdlib decodes members of every level and
// header shape, whole and damaged, with the kernel and compress/gzip.
func TestInflateMemberMatchesStdlib(t *testing.T) {
	payloads := map[string][]byte{
		"empty":  nil,
		"one":    []byte("A"),
		"fastq":  shortReadFASTQ(0xff00),
		"random": testPayload(20 << 10),
		"runs":   bytes.Repeat([]byte("ACGTTTTTTTTN"), 5000),
		"zeros":  make([]byte, 100<<10),
	}
	headers := map[string]gzip.Header{
		"bare":    {},
		"named":   {Name: "reads.fq", Comment: "lane 1", Extra: []byte("BC\x02\x00\x00\x00")},
		"longest": {Name: string(bytes.Repeat([]byte("n"), maxHeaderString-1))},
	}
	for pname, data := range payloads {
		for _, level := range []int{gzip.NoCompression, gzip.HuffmanOnly, gzip.BestSpeed, 5, gzip.BestCompression} {
			for hname, hdr := range headers {
				comp := gzipMember(t, data, level, hdr)
				t.Run(fmt.Sprintf("%s/level=%d/%s", pname, level, hname), func(t *testing.T) {
					got, err := inflateMember(nil, comp)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, data) {
						t.Fatalf("decoded %d bytes, want %d", len(got), len(data))
					}
					checkAgainstStdlib(t, nil, withHeaderCRC(comp))
					for cut := 0; cut < len(comp); cut += 1 + len(comp)/50 {
						checkAgainstStdlib(t, nil, comp[:cut])
					}
					rng := rand.New(rand.NewSource(int64(len(comp))))
					for range 40 {
						bad := append([]byte(nil), comp...)
						bad[rng.Intn(len(bad))] ^= 1 << rng.Intn(8)
						checkAgainstStdlib(t, nil, bad)
					}
					checkAgainstStdlib(t, nil, append(comp[:len(comp):len(comp)], 0))
				})
			}
		}
	}
}

// TestInflateMemberErrors pins the errors the member tier reports:
// gzip.ErrChecksum for a bad CRC or ISIZE, io.ErrUnexpectedEOF for a
// stream cut before its trailer, gzip.ErrHeader for a bad header (a name
// as long as compress/gzip's limit among them), and an ISIZE no member
// of that length could decode to is rejected before any allocation.
func TestInflateMemberErrors(t *testing.T) {
	data := shortReadFASTQ(8 << 10)
	comp := gzipMember(t, data, gzip.DefaultCompression, gzip.Header{})
	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), comp...)
		f(b)
		return b
	}
	for _, tc := range []struct {
		name string
		in   []byte
		want error
	}{
		{"crc", mutate(func(b []byte) { b[len(b)-8] ^= 1 }), gzip.ErrChecksum},
		{"isize", mutate(func(b []byte) { b[len(b)-4] ^= 1 }), gzip.ErrChecksum},
		{"cut", append(comp[:len(comp)/2:len(comp)/2], comp[len(comp)-8:]...), io.ErrUnexpectedEOF},
		{"no-trailer", comp[:10], io.ErrUnexpectedEOF},
		{"magic", mutate(func(b []byte) { b[1] = 0 }), gzip.ErrHeader},
		{"method", mutate(func(b []byte) { b[2] = 7 }), gzip.ErrHeader},
		{"header-crc", mutate(func(b []byte) { b[3] |= flgFHCRC }), gzip.ErrHeader},
		{"long-name", gzipMember(t, data, gzip.DefaultCompression, gzip.Header{Name: strings.Repeat("n", maxHeaderString)}), gzip.ErrHeader},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := inflateMember(nil, tc.in); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
	lie := mutate(func(b []byte) { binary.LittleEndian.PutUint32(b[len(b)-4:], 1<<31) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := inflateMember(nil, lie)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("implausible ISIZE accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<10 {
		t.Fatalf("an implausible ISIZE cost %d bytes of allocation", grew)
	}
}

// TestInflateMemberReusesDst: a buffer with room for ISIZE bytes is
// decoded into, and nothing past ISIZE is written.
func TestInflateMemberReusesDst(t *testing.T) {
	data := shortReadFASTQ(30 << 10)
	comp := gzipMember(t, data, gzip.DefaultCompression, gzip.Header{})
	dst := bytes.Repeat([]byte{0xa5}, len(data)+64)
	got, err := inflateMember(dst[:7], comp)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &dst[0] || !bytes.Equal(got, data) {
		t.Fatal("kernel did not decode into the buffer it was given")
	}
	if !bytes.Equal(dst[len(data):], bytes.Repeat([]byte{0xa5}, 64)) {
		t.Fatal("kernel wrote past ISIZE")
	}
}

var inflated []byte

// BenchmarkInflateMember decodes benchmark-shaped BGZF members (short
// paired reads at bgzip's block size and default level) with the kernel
// and with compress/gzip, the decoder it replaced.
func BenchmarkInflateMember(b *testing.B) {
	data := shortReadFASTQ(1 << 20)
	members, err := SplitMembers(mustBGZF(data, DefaultBlockSize))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("kernel", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		var buf []byte
		for b.Loop() {
			for _, m := range members {
				if buf, err = inflateMember(buf, m); err != nil {
					b.Fatal(err)
				}
			}
		}
		inflated = buf
	})
	b.Run("stdlib", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		zr := new(gzip.Reader)
		var out bytes.Buffer
		for b.Loop() {
			for _, m := range members {
				if err := zr.Reset(bytes.NewReader(m)); err != nil {
					b.Fatal(err)
				}
				out.Reset()
				if _, err := out.ReadFrom(zr); err != nil {
					b.Fatal(err)
				}
			}
		}
		inflated = out.Bytes()
	})
}
