// Package wire is the field codec both container formats are written
// with: the SAGS header (internal/shard) and the SAGe block
// (internal/core) each describe their layout once, as a function over a
// *Codec, and the same function marshals when handed a writing codec
// and parses when handed a reading one. The codec owns how one field
// kind moves and how an untrusted length is bounded before anything is
// allocated for it; the layout owns field order, version gates and the
// rules that relate one field to another.
//
// Errors are sticky: the first failure is kept, a failed reader has no
// input left so every later field comes up short and stores nothing,
// and the layout asks Err once at the end. Field names are put together
// only when a failure is reported, so a clean parse formats nothing.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"sage/internal/genome"
)

// ErrShort marks a read that ran past the bytes the reader was given
// although the container is large enough to hold the field: the caller
// holds a prefix and may retry with a longer one. Lengths the whole
// container could not hold are reported as corruption instead, never
// as ErrShort.
var ErrShort = errors.New("field extends past the available bytes")

// Codec moves fields between Go values and their wire form, in the
// direction it was built for.
type Codec struct {
	pkg     string // prefix of every error message
	buf     []byte // writing: the bytes so far; reading: the input
	off     int    // reading: cursor into buf
	total   int64  // reading: size of the whole container
	writing bool
	err     error
	scope   string // name of the repeated group being moved, "" outside one
	index   int    // element of that group
}

// NewWriter returns a codec that appends fields to an empty buffer.
func NewWriter(pkg string) *Codec {
	return &Codec{pkg: pkg, writing: true}
}

// NewReader returns a codec that reads fields from data, the leading
// bytes of a container that is total bytes long (len(data) when all of
// it is in hand).
func NewReader(pkg string, data []byte, total int64) *Codec {
	return &Codec{pkg: pkg, buf: data, total: total}
}

// Storing reports a writing codec that has not failed: the layout may
// now turn a value into the bytes of a field it is about to move.
func (c *Codec) Storing() bool { return c.writing && c.err == nil }

// Loading reports a reading codec that has not failed: the fields moved
// so far hold what the input said, and the layout may build on them.
func (c *Codec) Loading() bool { return !c.writing && c.err == nil }

// Err returns the first failure, nil if there was none.
func (c *Codec) Err() error { return c.err }

// Bytes returns the wire bytes moved so far: everything written, or
// the part of the input already read. It means nothing once the codec
// has failed.
func (c *Codec) Bytes() []byte {
	if c.writing {
		return c.buf
	}
	return c.buf[:c.off]
}

// Scope names the group the following fields belong to ("shard", 3 →
// "shard 3 offset" in an error); an empty scope ends the group.
func (c *Codec) Scope(scope string, i int) { c.scope, c.index = scope, i }

// Fail records err, which already says where it comes from, unless it
// is nil or an earlier failure is held. The first failure also drops
// the buffer: a reader finds no more input, so no later field can store
// anything, and what a writer appends from here on is never returned.
func (c *Codec) Fail(err error) {
	if c.err == nil && err != nil {
		c.err, c.buf, c.off = err, nil, 0
	}
}

// Failf records a rule the layout found broken.
func (c *Codec) Failf(format string, args ...any) {
	if c.err == nil {
		c.Fail(fmt.Errorf(c.pkg+": "+format, args...))
	}
}

// Fit returns how many fields of at least minBits bits the container
// can physically hold — the bound for a count or length read from
// untrusted bytes. A writer has no container yet, so its bound only
// rejects negative values.
func (c *Codec) Fit(minBits int64) uint64 {
	if c.writing {
		return math.MaxInt64
	}
	return uint64(c.total) * 8 / uint64(minBits)
}

// what names a field for an error message.
func (c *Codec) what(name string) string {
	if c.scope == "" {
		return name
	}
	return fmt.Sprintf("%s %d %s", c.scope, c.index, name)
}

// short records that the input ended inside the named field.
func (c *Codec) short(name string) {
	if c.err == nil {
		c.Fail(fmt.Errorf("%s: %w (reading %s)", c.pkg, ErrShort, c.what(name)))
	}
}

// take returns the next n input bytes; ok is false, and ErrShort
// recorded, when fewer remain.
func (c *Codec) take(name string, n int) (b []byte, ok bool) {
	if n > len(c.buf)-c.off {
		c.short(name)
		return nil, false
	}
	b = c.buf[c.off : c.off+n]
	c.off += n
	return b, true
}

// room makes space for n more output bytes, doubling the buffer where
// append alone would regrow a megabyte-sized header by a quarter each
// time. Writers then append to c.buf in place, one byte at a time for
// the short fields: a local slice would cost a write barrier per field
// and a variadic append a memmove call.
func (c *Codec) room(n int) {
	if cap(c.buf)-len(c.buf) < n {
		c.buf = append(make([]byte, 0, max(2*cap(c.buf), len(c.buf)+n, 1024)), c.buf...)
	}
}

// Magic moves a constant byte string; a reader rejects anything else.
func (c *Codec) Magic(m []byte) {
	if c.writing {
		c.room(len(m))
		c.buf = append(c.buf, m...)
	} else if b, ok := c.take("magic", len(m)); ok && !bytes.Equal(b, m) {
		c.Failf("bad magic %q", b)
	}
}

// U8 moves one byte.
func (c *Codec) U8(name string, p *uint8) {
	if c.writing {
		c.room(1)
		c.buf = append(c.buf, *p)
	} else if b, ok := c.take(name, 1); ok {
		*p = b[0]
	}
}

// U32 moves a fixed-width little-endian u32 (checksums).
func (c *Codec) U32(name string, p *uint32) {
	if c.writing {
		c.room(4)
		c.buf = append(c.buf, byte(*p), byte(*p>>8), byte(*p>>16), byte(*p>>24))
	} else if b, ok := c.take(name, 4); ok {
		*p = binary.LittleEndian.Uint32(b)
	}
}

// Uvarint moves an unsigned LEB128 integer no larger than max, in
// either direction.
func (c *Codec) Uvarint(name string, p *uint64, max uint64) {
	v := *p
	if !c.writing {
		var n int
		if v, n = binary.Uvarint(c.buf[c.off:]); n == 0 {
			c.short(name)
			return
		} else if n < 0 {
			c.Failf("%s overflows 64 bits", c.what(name))
			return
		}
		c.off += n
	}
	if v > max {
		c.Failf("implausible %s %d (limit %d)", c.what(name), v, max)
		return
	}
	if !c.writing {
		*p = v
		return
	}
	c.room(binary.MaxVarintLen64)
	for ; v >= 0x80; v >>= 7 {
		c.buf = append(c.buf, byte(v)|0x80)
	}
	c.buf = append(c.buf, byte(v))
}

// Int is Uvarint for an int field; a negative value never fits max.
func (c *Codec) Int(name string, p *int, max uint64) {
	v := uint64(*p)
	if c.Uvarint(name, &v, max); c.Loading() {
		*p = int(v)
	}
}

// Int64 is Uvarint for an int64 field.
func (c *Codec) Int64(name string, p *int64, max uint64) {
	v := uint64(*p)
	if c.Uvarint(name, &v, max); c.Loading() {
		*p = int64(v)
	}
}

// Raw moves exactly n bytes whose count both sides know from earlier
// fields. A reader checks n against the container (corruption), then
// against the input in hand (ErrShort); it sets *p to those bytes of
// the input, not a copy, and when n is 0 leaves *p as it was. A layout
// whose value outlives the input clones the field where it keeps it. A
// writer rejects a value of another size.
func (c *Codec) Raw(name string, p *[]byte, n int) {
	if c.writing {
		if len(*p) != n {
			c.Failf("%s is %d bytes, the layout says %d", c.what(name), len(*p), n)
			return
		}
		c.room(n)
		c.buf = append(c.buf, *p...)
		return
	}
	if n < 0 || int64(n) > c.total {
		c.Failf("%s (%d bytes) exceeds the %d-byte container", c.what(name), n, c.total)
		return
	}
	if b, ok := c.take(name, n); ok && n > 0 {
		*p = b
	}
}

// Seq moves an n-base sequence packed at 2 bits per base, or 3 when it
// may hold N (genome.Format2Bit, Format3Bit) — the consensus field of
// both formats.
func (c *Codec) Seq(name string, p *genome.Seq, n int, hasN bool) {
	f := genome.Format2Bit
	if hasN {
		f = genome.Format3Bit
	}
	var packed []byte
	var err error
	if c.Storing() {
		if packed, err = genome.Encode(*p, f); err != nil {
			c.Failf("packing %s: %w", c.what(name), err)
		} else if len(*p) != n {
			c.Failf("%s has %d bases, the layout says %d", c.what(name), len(*p), n)
		}
	}
	c.Raw(name, &packed, (n*f.BitsPerBase()+7)/8)
	if c.Loading() {
		if *p, err = genome.Decode(packed, n, f); err != nil {
			c.Failf("unpacking %s: %w", c.what(name), err)
		}
	}
}

// Blob moves a byte string behind its uvarint length; a reader's *p
// aliases the input, as Raw's does.
func (c *Codec) Blob(name string, p *[]byte) {
	n := len(*p)
	c.Int(name, &n, c.Fit(8))
	c.Raw(name, p, n)
}

// String is Blob for a string field.
func (c *Codec) String(name string, p *string) {
	b := []byte(*p)
	if c.Blob(name, &b); c.Loading() {
		*p = string(b)
	}
}
