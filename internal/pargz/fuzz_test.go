package pargz

import (
	"bytes"
	"compress/gzip"
	"runtime"
	"testing"
)

// FuzzSplitMembers feeds SplitMembers arbitrary bytes: whole BGZF
// streams, cut short, spliced with plain gzip, and members whose BC
// subfield claims any block size. It must never panic. When it succeeds,
// the members are not empty, each opens a gzip header with an EXTRA
// field, and together they are data itself, in order and without a
// copy. Whatever the bytes claim, it allocates no more than its read
// buffer and the member list: at most 72 KiB plus 4 bytes per input
// byte (a member is at least 26 bytes, and the list of them costs 24
// bytes a member, about three times over as it grows).
func FuzzSplitMembers(f *testing.F) {
	whole := mustBGZF(testPayload(4<<10), 1<<10)
	f.Add(whole)
	f.Add(mustBGZF(nil, 1<<10))
	f.Add(whole[:len(whole)/2])
	var plain bytes.Buffer
	zw := gzip.NewWriter(&plain)
	zw.Write(testPayload(1 << 10))
	zw.Close()
	f.Add(append(mustBGZF(testPayload(1<<10), 512), plain.Bytes()...))
	f.Add([]byte{})
	// A BC subfield that claims a 64 KiB block of a 18-byte input.
	f.Add([]byte{0x1f, 0x8b, 8, 4, 0, 0, 0, 0, 0, 0xff, 6, 0, 'B', 'C', 2, 0, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		members, err := SplitMembers(data)
		runtime.ReadMemStats(&after)
		if grew, ceiling := after.TotalAlloc-before.TotalAlloc, uint64(72<<10+4*len(data)); grew > ceiling {
			t.Fatalf("%d bytes allocated splitting %d bytes (ceiling %d)", grew, len(data), ceiling)
		}
		if err != nil {
			return
		}
		if len(members) == 0 {
			t.Fatal("no members and no error")
		}
		off := 0
		for i, m := range members {
			switch {
			case len(m) < bgzfHeaderLen || m[0] != gzipID1 || m[1] != gzipID2 || m[3]&flgFEXTRA == 0:
				t.Fatalf("member %d (%d bytes) does not open a gzip header with an EXTRA field", i, len(m))
			case off+len(m) > len(data) || &m[0] != &data[off]:
				t.Fatalf("member %d is not the %d bytes of data at offset %d", i, len(m), off)
			}
			off += len(m)
		}
		if off != len(data) {
			t.Fatalf("the members cover %d of %d bytes", off, len(data))
		}
	})
}
