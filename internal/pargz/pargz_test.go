package pargz

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"sage/internal/gzipc"
	"sage/internal/obs"
)

// testPayload builds compressible-but-not-trivial FASTQ-ish text.
func testPayload(n int) []byte {
	rng := rand.New(rand.NewSource(7))
	var b bytes.Buffer
	for i := 0; b.Len() < n; i++ {
		fmt.Fprintf(&b, "@read%d\n", i)
		for j := 0; j < 80; j++ {
			b.WriteByte("ACGT"[rng.Intn(4)])
		}
		b.WriteString("\n+\n")
		for j := 0; j < 80; j++ {
			b.WriteByte(byte('!' + rng.Intn(40)))
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// mustBGZF compresses data with the package Writer (BC subfields, EOF
// member) at the given block size.
func mustBGZF(data []byte, blockSize int) []byte {
	var buf bytes.Buffer
	w, err := NewWriterLevel(&buf, gzip.DefaultCompression, blockSize)
	if err == nil {
		_, err = w.Write(data)
	}
	if err == nil {
		err = w.Close()
	}
	if err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func bgzfBytes(t *testing.T, data []byte, blockSize int) []byte {
	t.Helper()
	return mustBGZF(data, blockSize)
}

// plainGzip compresses data as one generic gzip member (no EXTRA).
func plainGzip(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func readAllTier(t *testing.T, in []byte, opt Options, want Tier) []byte {
	t.Helper()
	r, err := NewReader(bytes.NewReader(in), opt)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Tier() != want {
		t.Fatalf("tier = %v, want %v", r.Tier(), want)
	}
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRoundtripBGZF(t *testing.T) {
	data := testPayload(300 << 10)
	in := bgzfBytes(t, data, 16<<10)
	got := readAllTier(t, in, Options{Workers: 4}, TierBGZF)
	if !bytes.Equal(got, data) {
		t.Fatalf("BGZF roundtrip mismatch: got %d bytes, want %d", len(got), len(data))
	}
}

func TestRoundtripPipelined(t *testing.T) {
	data := testPayload((readahead + 1) * streamBufSize) // > ring capacity, forces recycling
	in := plainGzip(t, data)
	got := readAllTier(t, in, Options{}, TierPipelined)
	if !bytes.Equal(got, data) {
		t.Fatalf("pipelined roundtrip mismatch: got %d bytes, want %d", len(got), len(data))
	}
}

func TestRoundtripEmptyInputs(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []byte
		tier Tier
	}{
		{"bgzf-empty", nil, TierBGZF}, // filled below: EOF member only
		{"plain-empty", nil, TierPipelined},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := tc.in
			if tc.tier == TierBGZF {
				in = bgzfBytes(t, nil, 0)
			} else {
				in = plainGzip(t, nil)
			}
			got := readAllTier(t, in, Options{}, tc.tier)
			if len(got) != 0 {
				t.Fatalf("decoded %d bytes from empty input", len(got))
			}
		})
	}
}

// TestBGZFFallbackMidStream: a bgzip prefix concatenated with a plain
// gzip member must still decode completely — the scanner demotes the
// tail to the pipelined path at the first member without a BC
// subfield.
func TestBGZFFallbackMidStream(t *testing.T) {
	head := testPayload(64 << 10)
	tail := testPayload(40 << 10)
	bg := bgzfBytes(t, head, 8<<10)
	// Strip the trailing EOF marker so the plain member follows the last
	// data member directly (concatenated-file shape).
	members, err := SplitMembers(bg)
	if err != nil {
		t.Fatal(err)
	}
	var in bytes.Buffer
	for _, m := range members[:len(members)-1] {
		in.Write(m)
	}
	in.Write(plainGzip(t, tail))

	got := readAllTier(t, in.Bytes(), Options{Workers: 4}, TierBGZF)
	want := append(append([]byte(nil), head...), tail...)
	if !bytes.Equal(got, want) {
		t.Fatalf("fallback roundtrip mismatch: got %d bytes, want %d", len(got), len(want))
	}
}

func TestWriterDeterministicAndSplittable(t *testing.T) {
	data := testPayload(150 << 10)
	a := bgzfBytes(t, data, 16<<10)
	b := bgzfBytes(t, data, 16<<10)
	if !bytes.Equal(a, b) {
		t.Fatal("Writer output is not deterministic")
	}
	members, err := SplitMembers(a)
	if err != nil {
		t.Fatal(err)
	}
	// ceil(150K/16K) data members + 1 EOF marker.
	wantMembers := (len(data)+16<<10-1)/(16<<10) + 1
	if len(members) != wantMembers {
		t.Fatalf("SplitMembers found %d members, want %d", len(members), wantMembers)
	}
	if got := len(members[len(members)-1]); got > 64 {
		t.Fatalf("EOF marker member is %d bytes, want a small empty member", got)
	}
	// Each member is independently a valid gzip stream.
	for i, m := range members {
		zr, err := gzip.NewReader(bytes.NewReader(m))
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
		if _, err := io.ReadAll(zr); err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
	}
	// And stdlib multistream gzip agrees on the decoded bytes.
	zr, err := gzip.NewReader(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	std, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(std, data) {
		t.Fatal("stdlib gzip disagrees with Writer output")
	}
}

func TestWriterRejectsBadConfig(t *testing.T) {
	if _, err := NewWriterLevel(io.Discard, 42, 0); err == nil {
		t.Fatal("level 42 accepted")
	}
	if _, err := NewWriterLevel(io.Discard, gzip.BestSpeed, DefaultBlockSize+1); err == nil {
		t.Fatal("oversized block accepted")
	}
}

// corruption coverage (satellite 2): every damage mode must surface as
// a contextual error naming the input and a compressed offset — never
// a silent short read — through both parallel and serial paths.

// wantCtxErr drains r expecting an error that names the input and
// mentions a compressed offset, and returns it. prefix is the decoded
// data expected before the damage.
func wantCtxErr(t *testing.T, in []byte, opt Options, wantPrefix []byte) error {
	t.Helper()
	r, err := NewReader(bytes.NewReader(in), opt)
	if err != nil {
		checkCtx(t, err, opt.Name)
		return err
	}
	defer r.Close()
	got, err := io.ReadAll(r)
	if err == nil {
		t.Fatalf("decode of damaged input succeeded (%d bytes) — silent short read", len(got))
	}
	checkCtx(t, err, opt.Name)
	if wantPrefix != nil && !bytes.Equal(got, wantPrefix) {
		t.Fatalf("bytes before the damage: got %d, want %d", len(got), len(wantPrefix))
	}
	return err
}

func checkCtx(t *testing.T, err error, name string) {
	t.Helper()
	if name != "" && !strings.Contains(err.Error(), name) {
		t.Fatalf("error %q does not name the input %q", err, name)
	}
	if !strings.Contains(err.Error(), "offset") {
		t.Fatalf("error %q carries no compressed offset", err)
	}
}

func TestCorruptTruncatedMidMemberBGZF(t *testing.T) {
	data := testPayload(64 << 10)
	in := bgzfBytes(t, data, 8<<10)
	members, err := SplitMembers(in)
	if err != nil {
		t.Fatal(err)
	}
	// Cut inside the third member: members 0–1 must still be delivered.
	cut := len(members[0]) + len(members[1]) + len(members[2])/2
	err = wantCtxErr(t, in[:cut], Options{Name: "trunc.fq.gz", Workers: 4}, nil)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
}

func TestCorruptTruncatedSerial(t *testing.T) {
	data := testPayload(64 << 10)
	in := plainGzip(t, data)
	err := wantCtxErr(t, in[:len(in)/2], Options{Name: "trunc-serial.fq.gz"}, nil)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
}

func TestCorruptTrailingGarbage(t *testing.T) {
	data := testPayload(32 << 10)
	t.Run("bgzf", func(t *testing.T) {
		in := append(bgzfBytes(t, data, 8<<10), []byte("NOT GZIP DATA")...)
		err := wantCtxErr(t, in, Options{Name: "garbage.fq.gz", Workers: 4}, data)
		if !strings.Contains(err.Error(), "trailing garbage") {
			t.Fatalf("err = %v, want trailing-garbage context", err)
		}
	})
	t.Run("serial", func(t *testing.T) {
		in := append(plainGzip(t, data), []byte("NOT GZIP DATA")...)
		wantCtxErr(t, in, Options{Name: "garbage-serial.fq.gz"}, data)
	})
}

func TestCorruptBadMemberCRC(t *testing.T) {
	data := testPayload(64 << 10)
	in := bgzfBytes(t, data, 8<<10)
	members, err := SplitMembers(in)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit in the stored CRC of the third member (trailer bytes
	// are member[len-8 : len-4]).
	off := len(members[0]) + len(members[1]) + len(members[2]) - 8
	bad := append([]byte(nil), in...)
	bad[off] ^= 0xff
	err = wantCtxErr(t, bad, Options{Name: "crc.fq.gz", Workers: 4},
		data[:2*(8<<10)]) // members 0 and 1 decode fine first
	if !errors.Is(err, gzip.ErrChecksum) {
		t.Fatalf("err = %v, want gzip.ErrChecksum", err)
	}
	if !strings.Contains(err.Error(), "member 2") {
		t.Fatalf("err = %v, want member index context", err)
	}
}

func TestCorruptBadCRCSerial(t *testing.T) {
	data := testPayload(32 << 10)
	in := plainGzip(t, data)
	bad := append([]byte(nil), in...)
	bad[len(bad)-6] ^= 0xff
	err := wantCtxErr(t, bad, Options{Name: "crc-serial.fq.gz"}, nil)
	if !errors.Is(err, gzip.ErrChecksum) {
		t.Fatalf("err = %v, want gzip.ErrChecksum", err)
	}
}

func TestCorruptHeaderAtConstruction(t *testing.T) {
	_, err := NewReader(strings.NewReader("\x1f\x8bnot really gzip"), Options{Name: "bad.gz"})
	if err == nil {
		t.Fatal("damaged first header accepted")
	}
	checkCtx(t, err, "bad.gz")

	// gzipc's private PGZ1 framing is a baseline output format, not an
	// ingest format: the reader refuses it like any other non-gzip.
	pg := gzipc.Compress(testPayload(8 << 10))
	if _, err := NewReader(bytes.NewReader(pg), Options{Name: "x.pgz"}); !errors.Is(err, errNotGzip) {
		t.Fatalf("PGZ1 input: err = %v, want errNotGzip", err)
	}
	if _, err := SplitMembers(pg); err == nil {
		t.Fatal("SplitMembers accepted a PGZ1 stream")
	}
}

func TestCloseMidStreamReleasesGoroutines(t *testing.T) {
	data := testPayload(400 << 10)
	for _, tc := range []struct {
		name string
		in   []byte
	}{
		{"bgzf", bgzfBytes(t, data, 4<<10)},
		{"plain", plainGzip(t, data)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewReader(bytes.NewReader(tc.in), Options{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 1024)
			if _, err := io.ReadFull(r, buf); err != nil {
				t.Fatal(err)
			}
			if err := r.Close(); err != nil { // wg.Wait inside: hangs = failure
				t.Fatal(err)
			}
			if _, err := r.Read(buf); err == nil {
				t.Fatal("read after Close succeeded")
			}
		})
	}
}

// TestStatsAndMetrics checks the Reader's Stats counters after a traced
// member-parallel decode: Stats is the one counter surface pargz exposes.
func TestStatsAndMetrics(t *testing.T) {
	data := testPayload(100 << 10)
	in := bgzfBytes(t, data, 8<<10)
	r, err := NewReader(bytes.NewReader(in), Options{Workers: 2, Trace: obs.NewTrace("t")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, r); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.DecodedBytes != int64(len(data)) {
		t.Fatalf("DecodedBytes = %d, want %d", st.DecodedBytes, len(data))
	}
	if st.CompressedBytes != int64(len(in)) {
		t.Fatalf("CompressedBytes = %d, want %d", st.CompressedBytes, len(in))
	}
	if st.Members < 13 { // 100K/8K data members + EOF marker
		t.Fatalf("Members = %d, want >= 13", st.Members)
	}
}

func BenchmarkDecodeBGZFParallel(b *testing.B) {
	data := testPayload(1 << 20)
	in := mustBGZF(data, 32<<10)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := NewReader(bytes.NewReader(in), Options{Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodePipelined(b *testing.B) {
	data := testPayload(1 << 20)
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(data)
	zw.Close()
	in := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := NewReader(bytes.NewReader(in), Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, r); err != nil {
			b.Fatal(err)
		}
	}
}
