package bitio

import (
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
