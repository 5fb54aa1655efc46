package headers

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"
)

// maxFuzzHeaders caps the header count a fuzzed stream may claim before
// Decompress is run on it: Decompress takes any count, and a template
// without slots costs no bits per header, so nothing in such a stream
// bounds what it claims. Append with the reader's count is the bounded
// entry, and is checked at every count.
const maxFuzzHeaders = 1 << 14

// allocBytes returns the bytes fn allocated on the heap, as far as a
// check against ceiling can tell. TotalAlloc counts the whole process,
// so the fuzzing engine's own goroutines can add to a reading: a call
// that reads over ceiling runs and is measured once more, and the
// smaller reading is returned, so only a call over ceiling both times
// fails. fn must do the same work each time it runs.
func allocBytes(ceiling uint64, fn func()) uint64 {
	n := heapBytes(fn)
	if n > ceiling {
		n = min(n, heapBytes(fn))
	}
	return n
}

// heapBytes returns the growth of the process's TotalAlloc across fn.
func heapBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocCeiling bounds what Append may allocate to decode data into
// names bytes of n headers: a fixed allowance for the inflater and the
// readers, a multiple of the input (a raw stream inflates to at most
// ~1032 bytes per compressed byte, read in doubling steps; a template's
// slot table costs at most 16 bytes per 16 body bits), and a multiple
// of the output and its end offsets.
func allocCeiling(data []byte, names, n int) uint64 {
	return 1<<20 + 4*1032*uint64(len(data)) + 4*uint64(names) + 32*uint64(n)
}

// FuzzHeaders holds Append, the bounded header decoder, to Decompress on
// arbitrary streams: with want = -1 and with want = the count Decompress
// found, it returns the same error or the same names, on a fresh Decoder
// within allocCeiling and on a reused one alike; with any other want it
// fails before sizing anything by the count the stream claims.
func FuzzHeaders(f *testing.F) {
	for _, hs := range [][]string{
		nil,
		{"r"},
		{"SRR1.1 length=150", "SRR1.2 length=150", "SRR1.10 length=151"},
		{"run007 tile0001", "run008 tile0002", "run009 tile0010"},
		{"alpha.1", "beta two", "gamma-3-x", "12start"},
		{"", "", ""},
	} {
		data, err := Compress(hs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// Templated, 2^40 headers, template "r", no slots, no body.
	f.Add([]byte{modeTemplated, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 1, 'r', 0, 0})
	f.Add([]byte{modeRaw, 3, 0})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var claimed uint64
		if len(data) > 1 {
			claimed, _ = binary.Uvarint(data[1:])
		}
		wrong := 0
		if claimed == 0 {
			wrong = 1
		}
		// d serves every unmeasured call, so each decode after the first
		// runs on a slot table an earlier one left behind.
		var d Decoder
		var err error
		if n := allocBytes(1<<10, func() { _, _, err = d.Append(nil, nil, data, wrong) }); n > 1<<10 {
			t.Fatalf("Append with want %d (stream claims %d) allocated %d bytes", wrong, claimed, n)
		}
		if err == nil && len(data) > 0 && (data[0] == modeTemplated || data[0] == modeRaw) {
			t.Fatalf("Append accepted want %d for a stream claiming %d headers", wrong, claimed)
		}
		if claimed > maxFuzzHeaders {
			return
		}

		hs, derr := Decompress(data)
		names, ends, aerr := d.Append(nil, nil, data, -1)
		if err := sameResult(hs, derr, names, ends, aerr); err != nil {
			t.Fatalf("want -1: %v", err)
		}
		want := int(claimed)
		if derr == nil {
			want = len(hs)
		}
		names, ends, aerr = new(Decoder).Append(nil, nil, data, want)
		if err := sameResult(hs, derr, names, ends, aerr); err != nil {
			t.Fatalf("want %d: %v", want, err)
		}
		// A fresh Decoder grows its slot table inside the measured call,
		// so the ceiling covers the table's pre-allocation bound.
		ceiling := allocCeiling(data, len(names), len(ends))
		if n := allocBytes(ceiling, func() { new(Decoder).Append(nil, nil, data, want) }); n > ceiling {
			t.Fatalf("Append with want %d allocated %d bytes for %d bytes of %d names", want, n, len(names), len(ends))
		}
		names, ends, aerr = d.Append(nil, nil, data, want)
		if err := sameResult(hs, derr, names, ends, aerr); err != nil {
			t.Fatalf("want %d on a reused Decoder: %v", want, err)
		}
	})
}

// sameResult reports how Append's names and ends differ from
// Decompress's headers, or their errors from each other.
func sameResult(hs []string, derr error, names []byte, ends []int, aerr error) error {
	switch {
	case (derr == nil) != (aerr == nil):
		return fmt.Errorf("Decompress error %v, Append error %v", derr, aerr)
	case derr != nil:
		if derr.Error() != aerr.Error() {
			return fmt.Errorf("Decompress error %q, Append error %q", derr, aerr)
		}
		return nil
	case len(ends) != len(hs):
		return fmt.Errorf("Append decoded %d headers, Decompress %d", len(ends), len(hs))
	}
	start := 0
	for i, end := range ends {
		if got := string(names[start:end]); got != hs[i] {
			return fmt.Errorf("header %d: Append %q, Decompress %q", i, got, hs[i])
		}
		start = end
	}
	return nil
}
