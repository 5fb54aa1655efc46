package wire

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// record is a layout with one field of every kind, the shape both
// container formats use the codec in.
type record struct {
	tag   uint8
	sum   uint32
	bits  uint64
	n     int
	off   int64
	name  string
	body  []byte
	fixed []byte
}

func (r *record) layout(c *Codec) {
	c.Magic([]byte("WIRE"))
	c.U8("tag", &r.tag)
	c.U32("sum", &r.sum)
	c.Uvarint("bits", &r.bits, 1<<62)
	c.Int("count", &r.n, c.Fit(1))
	c.Int64("offset", &r.off, c.Fit(1))
	c.Scope("entry", 7)
	c.String("name", &r.name)
	c.Blob("body", &r.body)
	c.Scope("", 0)
	c.Raw("fixed", &r.fixed, 3)
}

func marshal(t *testing.T, r *record) []byte {
	t.Helper()
	w := NewWriter("test")
	r.layout(w)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	return w.Bytes()
}

func TestRoundtrip(t *testing.T) {
	in := record{tag: 9, sum: 0xDEADBEEF, bits: 1 << 40, n: 300, off: 7000,
		name: "lane1.fq", body: bytes.Repeat([]byte{0xab}, 5000), fixed: []byte{1, 2, 3}}
	data := marshal(t, &in)
	var out record
	r := NewReader("test", data, int64(len(data)))
	out.layout(r)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if len(r.Bytes()) != len(data) {
		t.Fatalf("reader consumed %d of %d bytes", len(r.Bytes()), len(data))
	}
	if out.tag != in.tag || out.sum != in.sum || out.bits != in.bits || out.n != in.n ||
		out.off != in.off || out.name != in.name || !bytes.Equal(out.body, in.body) ||
		!bytes.Equal(out.fixed, in.fixed) {
		t.Fatalf("roundtrip changed the record:\n in %+v\nout %+v", in, out)
	}
	// The parsed byte fields alias the input, and the strings do not.
	data[len(data)-1] ^= 0xff
	if out.fixed[2] != 3^0xff {
		t.Fatal("parsed bytes are a copy of the input")
	}
	clear(data)
	if out.name != in.name {
		t.Fatal("a parsed string aliases the input")
	}
}

// TestShortVersusCorrupt: every proper prefix of a valid record reads
// as ErrShort when the container is said to be large enough (the
// caller may fetch more), and a length the container cannot hold is
// corruption — reported before anything is allocated for it.
func TestShortVersusCorrupt(t *testing.T) {
	in := record{name: "x", body: make([]byte, 40), fixed: []byte{1, 2, 3}}
	data := marshal(t, &in)
	for n := 0; n < len(data); n++ {
		var out record
		r := NewReader("test", data[:n], int64(len(data)))
		out.layout(r)
		if !errors.Is(r.Err(), ErrShort) {
			t.Fatalf("prefix of %d bytes: got %v, want ErrShort", n, r.Err())
		}
	}
	// A 2^28-byte body claimed inside a 64-byte container.
	huge := append([]byte("WIRE\x00\x00\x00\x00\x00\x00\x00\x00\x01x"), 0x80, 0x80, 0x80, 0x80, 0x01)
	var out record
	r := NewReader("test", huge, 64)
	out.layout(r)
	if r.Err() == nil || errors.Is(r.Err(), ErrShort) {
		t.Fatalf("oversized length: got %v, want a corruption error", r.Err())
	}
	if out.body != nil {
		t.Fatal("reader allocated for a length the container cannot hold")
	}
	if !strings.Contains(r.Err().Error(), "entry 7 body") {
		t.Fatalf("error does not name the scoped field: %v", r.Err())
	}
}

// TestStickyAndBounds: the first failure wins, later fields are left
// alone, and a bound holds in both directions.
func TestStickyAndBounds(t *testing.T) {
	w := NewWriter("test")
	n, m := -1, 5
	w.Int("first", &n, w.Fit(1))
	first := w.Err()
	w.Int("second", &m, 4)
	w.Failf("third")
	if first == nil || w.Err() != first {
		t.Fatalf("first failure not kept: %v then %v", first, w.Err())
	}

	w = NewWriter("test")
	w.Int("capped", &m, 4)
	if w.Err() == nil {
		t.Fatal("writer accepted a value above its cap")
	}
	r := NewReader("test", []byte{5, 9}, 2)
	var got, after int
	r.Int("capped", &got, 4)
	r.Int("after", &after, 100)
	if r.Err() == nil || got != 0 || after != 0 {
		t.Fatalf("reader stored past a failed cap: err %v, got %d, after %d", r.Err(), got, after)
	}
	short := []byte{1, 2}
	w = NewWriter("test")
	w.Raw("fixed", &short, 3)
	if w.Err() == nil {
		t.Fatal("writer accepted a fixed field of the wrong size")
	}
}
