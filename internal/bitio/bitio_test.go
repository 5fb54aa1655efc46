package bitio

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadBits(t *testing.T) {
	w := NewWriter(16)
	w.WriteBits(0b101, 3)
	w.WriteBits(0xff, 8)
	w.WriteBits(0, 1)
	w.WriteBits(0x1234, 16)
	r := NewReader(w.Bytes(), w.Len())
	if v, err := r.ReadBits(3); err != nil || v != 0b101 {
		t.Fatalf("got %v,%v want 5", v, err)
	}
	if v, err := r.ReadBits(8); err != nil || v != 0xff {
		t.Fatalf("got %v,%v want 255", v, err)
	}
	if v, err := r.ReadBits(1); err != nil || v != 0 {
		t.Fatalf("got %v,%v want 0", v, err)
	}
	if v, err := r.ReadBits(16); err != nil || v != 0x1234 {
		t.Fatalf("got %v,%v want 0x1234", v, err)
	}
	if r.n-r.pos != 0 {
		t.Fatalf("remaining %d want 0", r.n-r.pos)
	}
}

func TestWriteBitPacksMSBFirst(t *testing.T) {
	w := NewWriter(1)
	// 1000 0001 -> 0x81
	bits := []uint{1, 0, 0, 0, 0, 0, 0, 1}
	for _, b := range bits {
		w.WriteBit(b)
	}
	got := w.Bytes()
	if len(got) != 1 || got[0] != 0x81 {
		t.Fatalf("got %x want 81", got)
	}
}

func TestPartialBytePadding(t *testing.T) {
	w := NewWriter(1)
	w.WriteBits(0b11, 2)
	got := w.Bytes()
	if len(got) != 1 || got[0] != 0xC0 {
		t.Fatalf("got %x want c0", got)
	}
	if w.Len() != 2 {
		t.Fatalf("len %d want 2", w.Len())
	}
}

func TestUnaryRoundtrip(t *testing.T) {
	w := NewWriter(16)
	vals := []uint{0, 1, 2, 3, 7, 0, 31}
	for _, v := range vals {
		w.WriteUnary(v)
	}
	r := NewReader(w.Bytes(), w.Len())
	for i, want := range vals {
		got, err := r.ReadUnary(64)
		if err != nil {
			t.Fatalf("val %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("val %d: got %d want %d", i, got, want)
		}
	}
}

func TestUnaryMaxOnes(t *testing.T) {
	w := NewWriter(8)
	w.WriteUnary(10)
	r := NewReader(w.Bytes(), w.Len())
	if _, err := r.ReadUnary(5); err == nil {
		t.Fatal("expected error for unary code exceeding maxOnes")
	}
}

func TestReadPastEnd(t *testing.T) {
	w := NewWriter(1)
	w.WriteBits(0b10, 2)
	r := NewReader(w.Bytes(), w.Len())
	if _, err := r.ReadBits(3); err != ErrOverflow {
		t.Fatalf("got %v want ErrOverflow", err)
	}
	// After a failed wide read the cursor must not have moved.
	if v, err := r.ReadBits(2); err != nil || v != 0b10 {
		t.Fatalf("cursor moved on failed read: %v %v", v, err)
	}
}

func TestReaderBoundsToBuffer(t *testing.T) {
	r := NewReader([]byte{0xff}, 1000)
	if r.n-r.pos != 8 {
		t.Fatalf("remaining %d want 8", r.n-r.pos)
	}
}

func TestUvarintRoundtrip(t *testing.T) {
	vals := []uint64{0, 1, 127, 128, 300, 1 << 20, 1<<40 + 12345, 1<<63 + 99}
	w := NewWriter(64)
	for _, v := range vals {
		PutUvarint64(w, v)
	}
	r := NewReader(w.Bytes(), w.Len())
	for i, want := range vals {
		got, err := ReadUvarint64(r)
		if err != nil {
			t.Fatalf("val %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("val %d: got %d want %d", i, got, want)
		}
	}
}

// Property: any sequence of (value, width) writes reads back identically.
func TestQuickBitsRoundtrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%64) + 1
		type field struct {
			v uint64
			w uint
		}
		fields := make([]field, count)
		wr := NewWriter(count * 8)
		for i := range fields {
			width := uint(rng.Intn(64) + 1)
			v := rng.Uint64() & (^uint64(0) >> (64 - width))
			fields[i] = field{v, width}
			wr.WriteBits(v, width)
		}
		rd := NewReader(wr.Bytes(), wr.Len())
		for _, f := range fields {
			got, err := rd.ReadBits(f.w)
			if err != nil || got != f.v {
				return false
			}
		}
		return rd.n-rd.pos == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: uvarint roundtrips for arbitrary uint64 values.
func TestQuickUvarint(t *testing.T) {
	f := func(v uint64) bool {
		w := NewWriter(10)
		PutUvarint64(w, v)
		r := NewReader(w.Bytes(), w.Len())
		got, err := ReadUvarint64(r)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: mixed unary + fixed-width interleavings roundtrip.
func TestQuickMixedStream(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := NewWriter(256)
		type op struct {
			unary bool
			v     uint64
			width uint
		}
		ops := make([]op, 50)
		for i := range ops {
			if rng.Intn(2) == 0 {
				u := uint64(rng.Intn(20))
				ops[i] = op{unary: true, v: u}
				w.WriteUnary(uint(u))
			} else {
				width := uint(rng.Intn(32) + 1)
				v := rng.Uint64() & (^uint64(0) >> (64 - width))
				ops[i] = op{v: v, width: width}
				w.WriteBits(v, width)
			}
		}
		r := NewReader(w.Bytes(), w.Len())
		for _, o := range ops {
			if o.unary {
				got, err := r.ReadUnary(64)
				if err != nil || uint64(got) != o.v {
					return false
				}
			} else {
				got, err := r.ReadBits(o.width)
				if err != nil || got != o.v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// oracle is the reader the window reader replaced: ReadBits loops once
// per byte and ReadUnary once per bit. FuzzReader holds the window
// reader to it.
type oracle struct {
	buf    []byte
	pos, n uint64
}

func (o *oracle) readBit() (uint, error) {
	if o.pos >= o.n {
		return 0, ErrOverflow
	}
	bit := uint(o.buf[o.pos>>3]>>(7-o.pos&7)) & 1
	o.pos++
	return bit, nil
}

func (o *oracle) readBits(n uint) (uint64, error) {
	if n > 64 {
		return 0, fmt.Errorf("bitio: ReadBits width %d > 64", n)
	}
	if o.pos+uint64(n) > o.n {
		return 0, ErrOverflow
	}
	var v uint64
	pos := o.pos
	for n > 0 {
		b := o.buf[pos>>3]
		off := uint(pos & 7)
		avail := 8 - off
		take := min(avail, n)
		v = v<<take | uint64((b>>(avail-take))&(1<<take-1))
		pos += uint64(take)
		n -= take
	}
	o.pos = pos
	return v, nil
}

func (o *oracle) readUnary(maxOnes uint) (uint, error) {
	var v uint
	for {
		bit, err := o.readBit()
		if err != nil {
			return 0, err
		}
		if bit == 0 {
			return v, nil
		}
		v++
		if v > maxOnes {
			return 0, fmt.Errorf("bitio: unary code exceeds %d ones", maxOnes)
		}
	}
}

// FuzzReader runs the window reader and the oracle over the same buffer
// and the same mix of ReadBit, ReadBits (widths 0–65) and ReadUnary
// (maxOnes 0–70) calls: values, errors and cursors must agree after
// every call, the failing ones included.
func FuzzReader(f *testing.F) {
	f.Add([]byte{0xff, 0x00, 0xaa, 0x55, 0xf0, 0x0f, 0xff, 0xff, 0xfe, 0x01}, uint64(80), []byte{1, 13, 2, 7, 0, 1, 64, 2, 70})
	f.Add(bytes.Repeat([]byte{0xff}, 24), uint64(190), []byte{2, 70, 2, 55, 2, 56, 2, 57, 2, 70, 1, 65})
	f.Add(bytes.Repeat([]byte{0x80, 0x01}, 16), uint64(255), []byte{1, 57, 1, 64, 1, 0, 2, 0, 0, 0})
	f.Add([]byte{0xde, 0xad}, uint64(11), []byte{1, 3, 1, 9, 2, 1})
	// The last cursor whose window fits, and the first that does not.
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, uint64(80), []byte{1, 23, 1, 1, 1, 8, 2, 9})
	f.Fuzz(func(t *testing.T, buf []byte, nbits uint64, ops []byte) {
		nbits %= 8*uint64(len(buf)) + 1
		r := NewReader(buf, nbits)
		o := &oracle{buf: buf, n: nbits}
		for i := 0; i+1 < len(ops); i += 2 {
			var got, want uint64
			var gerr, werr error
			switch arg := ops[i+1]; ops[i] % 3 {
			case 0:
				var g, w uint
				g, gerr = r.ReadBit()
				w, werr = o.readBit()
				got, want = uint64(g), uint64(w)
			case 1:
				got, gerr = r.ReadBits(uint(arg % 66))
				want, werr = o.readBits(uint(arg % 66))
			case 2:
				var g, w uint
				g, gerr = r.ReadUnary(uint(arg % 71))
				w, werr = o.readUnary(uint(arg % 71))
				got, want = uint64(g), uint64(w)
			}
			if got != want || fmt.Sprint(gerr) != fmt.Sprint(werr) || r.pos != o.pos {
				t.Fatalf("op %d (%d, %d) at bit %d of %d: got %d, %v, cursor %d; oracle %d, %v, cursor %d",
					i/2, ops[i]%3, ops[i+1], o.pos, nbits, got, gerr, r.pos, want, werr, o.pos)
			}
		}
	})
}
