package qual

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"sage/internal/fastq"
)

// The score sources the kernel tests, the fuzz seeds and the benchmarks
// draw from: the incompressible and the most compressible extremes, the
// repository benchmark's iid N(36,4) scores, a clamped random walk
// (strongly correlated neighbours), and the 4-level binning of current
// instruments.
type scoreFill func(rng *rand.Rand, q []byte)

func fillUniform(rng *rand.Rand, q []byte) {
	for i := range q {
		q[i] = byte(rng.Intn(treeNodes))
	}
}

func fillConstant(_ *rand.Rand, q []byte) {
	for i := range q {
		q[i] = 40
	}
}

func fillNormal(rng *rand.Rand, q []byte) {
	for i := range q {
		q[i] = byte(min(max(36+rng.NormFloat64()*4, 0), treeNodes-1))
	}
}

func fillWalk(rng *rand.Rand, q []byte) {
	level := 36.0
	for j := range q {
		level = min(max(level+rng.NormFloat64()*1.5, 2), 41)
		q[j] = byte(level)
	}
}

func fillBinned(rng *rand.Rand, q []byte) {
	for i := range q {
		q[i] = [4]byte{2, 12, 23, 37}[rng.Intn(4)]
	}
}

// randomReads draws n reads from fill with lengths from pick.
func randomReads(rng *rand.Rand, fill scoreFill, n int, pick func() int) ([][]byte, []int) {
	quals := make([][]byte, n)
	lengths := make([]int, n)
	for i := range quals {
		quals[i] = make([]byte, pick())
		fill(rng, quals[i])
		lengths[i] = len(quals[i])
	}
	return quals, lengths
}

// The kind-0 encoder: what Compress ran before kind 1, kept to make the
// legacy streams old containers carry, and checked against the
// bit-at-a-time oracle below.

type rcEncoder struct {
	low       uint64
	rng       uint32
	cache     byte
	cacheSize int64
	out       []byte
}

// encPool recycles encoders (and with them the grown output buffer)
// across calls and workers. flush hands out a view of e.out, so callers
// must copy the body before putEncoder returns the buffer to the pool.
var encPool = sync.Pool{New: func() any { return new(rcEncoder) }}

func getEncoder() *rcEncoder {
	e := encPool.Get().(*rcEncoder)
	e.low, e.rng, e.cache, e.cacheSize, e.out = 0, 0xFFFFFFFF, 0, 1, e.out[:0]
	return e
}

func putEncoder(e *rcEncoder) { encPool.Put(e) }

// encodeScores codes the scores of one read under probs and adapts it:
// the bit-at-a-time coder's arithmetic (oracleEncodeScores below) with
// low and rng in locals and no data-dependent branch in the bit step.
// The encoder knows the bit, so mask = -bit selects the
// half of the range, the increment of low and the adaptation target:
// p -= p>>5 is p += (31-p)>>5 under an arithmetic shift, the mirror of
// p += (4096-p)>>5. As in decodeScores, probabilities stay in [31, 4065],
// so one 8-bit shift restores rng >= 2^24: renormalisation is an if.
func (e *rcEncoder) encodeScores(q []byte, probs *[numContexts]uint16) error {
	low, rng := e.low, e.rng
	q1, q2 := byte(0), byte(0)
	for _, s := range q {
		if s > fastq.MaxQuality {
			return fmt.Errorf("qual: score %d exceeds alphabet max %d", s, fastq.MaxQuality)
		}
		ctx := (*[treeNodes]uint16)(probs[contextBase(q1, q2):])
		node := uint32(1)
		for i := symbolBits - 1; i >= 0; i-- {
			bit := uint32(s>>uint(i)) & 1
			mask := -bit
			p := int32(ctx[node])
			bound := (rng >> probBits) * uint32(p)
			low += uint64(bound & mask)
			rng = bound + (rng-2*bound)&mask
			target := 1<<probBits - int32(mask&(1<<probBits-(1<<adaptRate-1)))
			ctx[node] = uint16(p + (target-p)>>adaptRate)
			node = node<<1 | bit
			if rng < topValue {
				low = e.shiftLow(low)
				rng <<= 8
			}
		}
		q2, q1 = q1, s
	}
	e.low, e.rng = low, rng
	return nil
}

// shiftLow moves the top byte of low into the stream, or into the run of
// 0xFF bytes a later carry may still change, and returns low shifted.
func (e *rcEncoder) shiftLow(low uint64) uint64 {
	if low < 0xFF000000 || low > 0xFFFFFFFF {
		temp := e.cache
		for {
			e.out = append(e.out, byte(uint64(temp)+(low>>32)))
			temp = 0xFF
			e.cacheSize--
			if e.cacheSize == 0 {
				break
			}
		}
		e.cache = byte(low >> 24)
	}
	e.cacheSize++
	return (low << 8) & 0xFFFFFFFF
}

func (e *rcEncoder) flush() []byte {
	for i := 0; i < 5; i++ {
		e.low = e.shiftLow(e.low)
	}
	return e.out
}

// legacyCompress is Compress as it was for kind 0: the kernel over every
// read, the body behind a length word whose kind byte is 0.
func legacyCompress(quals [][]byte) ([]byte, error) {
	enc := getEncoder()
	defer putEncoder(enc)
	probs := getProbs()
	defer probsPool.Put(probs)
	for _, q := range quals {
		if err := enc.encodeScores(q, probs); err != nil {
			return nil, err
		}
	}
	body := enc.flush()
	return append(binary.LittleEndian.AppendUint64(nil, uint64(len(body))), body...), nil
}

// oracleScores decodes one read with decodeBit only: the loop Decompress
// ran before the kernel, kept as the reference the kernel must equal.
func oracleScores(d *rcDecoder, q []byte, probs *[numContexts]uint16) {
	q1, q2 := byte(0), byte(0)
	for i := range q {
		base := contextBase(q1, q2)
		node := 1
		for b := 0; b < symbolBits; b++ {
			node = node<<1 | d.decodeBit(&probs[base+node])
		}
		q[i] = byte(node - treeNodes)
		q2, q1 = q1, q[i]
	}
}

// decodeBoth decodes body read by read with the kernel and the oracle
// and fails on the first score, coder-state or model difference. It
// returns the scores and the number of body bytes asked for.
func decodeBoth(t testing.TB, body []byte, lengths []int) ([][]byte, int) {
	t.Helper()
	var kd, od rcDecoder
	kd.init(body)
	od.init(body)
	kp, op := getProbs(), getProbs()
	defer probsPool.Put(kp)
	defer probsPool.Put(op)
	out := make([][]byte, len(lengths))
	for r, l := range lengths {
		out[r] = make([]byte, l)
		want := make([]byte, l)
		kd.decodeScores(out[r], kp)
		oracleScores(&od, want, op)
		if !bytes.Equal(out[r], want) {
			t.Fatalf("read %d of %v: kernel and oracle scores differ", r, lengths)
		}
		if kd.rng != od.rng || kd.code != od.code || kd.pos != od.pos {
			t.Fatalf("read %d of %v: kernel state (%#x %#x %d), oracle (%#x %#x %d)",
				r, lengths, kd.rng, kd.code, kd.pos, od.rng, od.code, od.pos)
		}
	}
	if *kp != *op {
		t.Fatalf("lengths %v: kernel and oracle leave different models", lengths)
	}
	return out, kd.pos
}

// The kernel equals the bit-at-a-time oracle — scores, final rng, code
// and pos, and the adapted model — on streams of every regime and on
// the read lengths around its boundaries: empty reads, reads shorter
// and longer than a score's symbolBits bytes, streams too short for the
// fast loop to start, and the last read of every stream, which crosses
// from the fast loop into the tail. Every stream is consumed exactly.
func TestKernelEqualsOracle(t *testing.T) {
	streams := 10000
	if testing.Short() {
		streams = 1000
	}
	rng := rand.New(rand.NewSource(19))
	fills := []scoreFill{fillUniform, fillConstant, fillNormal, fillBinned}
	short := []int{0, 0, 1, 5, 6, 7, 150}
	for s := 0; s < streams; s++ {
		pick := func() int { return short[rng.Intn(len(short))] }
		if s%250 == 0 {
			pick = func() int { return 16000 }
		}
		quals, lengths := randomReads(rng, fills[s%len(fills)], rng.Intn(6), pick)
		data, err := legacyCompress(quals)
		if err != nil {
			t.Fatal(err)
		}
		body := data[8:]
		got, pos := decodeBoth(t, body, lengths)
		for r := range quals {
			if !bytes.Equal(got[r], quals[r]) {
				t.Fatalf("stream %d read %d does not round-trip", s, r)
			}
		}
		if pos != len(body) {
			t.Fatalf("stream %d (%v): decoder asked for %d of %d body bytes", s, lengths, pos, len(body))
		}
		// Any bytes at all decode alike, past the end included: a cut
		// stream, and the same lengths over noise.
		decodeBoth(t, body[:rng.Intn(len(body)+1)], lengths)
		noise := make([]byte, rng.Intn(40))
		rng.Read(noise)
		decodeBoth(t, noise, lengths)
	}
}

// A stream of any kind ends where its scores end: Decompress names a
// stream that is cut short, one that carries extra bytes, and lengths
// that ask for more or fewer scores than were coded — or for more than
// any stream of that size could hold, before allocating for them.
func TestDecompressRejectsMisfitStreams(t *testing.T) {
	t.Run("kind 0", func(t *testing.T) { rejectsMisfits(t, legacyCompress, "stream ends before the scores do") })
	t.Run("kind 1", func(t *testing.T) { rejectsMisfits(t, kind1Compress, "stream tables truncated") })
	t.Run("kind 2", func(t *testing.T) { rejectsMisfits(t, Compress, "stream tables truncated") })
}

func rejectsMisfits(t *testing.T, compress func([][]byte) ([]byte, error), emptyBody string) {
	rng := rand.New(rand.NewSource(23))
	quals, lengths := randomReads(rng, fillNormal, 20, func() int { return 150 })
	data, err := compress(quals)
	if err != nil {
		t.Fatal(err)
	}
	withBody := func(body []byte) []byte {
		out := append([]byte(nil), data[:8]...)
		out[0], out[1] = byte(len(body)), byte(len(body)>>8)
		return append(out, body...)
	}
	scaled := func(f int) []int {
		out := make([]int, len(lengths))
		for i, l := range lengths {
			out[i] = l * f
		}
		return out
	}
	for _, tc := range []struct {
		name    string
		data    []byte
		lengths []int
		want    string
	}{
		{"truncated", withBody(data[8 : len(data)-1]), lengths, "stream ends before the scores do"},
		{"empty body", withBody(nil), nil, emptyBody},
		{"trailing byte", withBody(append(data[8:len(data):len(data)], 0)), lengths, "left over"},
		{"one read too many", data, append(lengths[:len(lengths):len(lengths)], 150), "stream ends before the scores do"},
		{"one read too few", data, lengths[:len(lengths)-1], "left over"},
		{"impossible total", data, scaled(1000), "holds at most"},
		{"overflowing total", data, []int{1 << 62, 1 << 62, 1 << 62}, "holds at most"},
		{"negative length", data, []int{-1}, "holds at most"},
	} {
		_, err := Decompress(tc.data, tc.lengths)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
	if _, err := Decompress(data, lengths); err != nil {
		t.Fatalf("the unmodified stream: %v", err)
	}
}

// maxScoresPerByte really bounds the densest stream of each kind: a run
// of constant scores, every one at the highest probability the coder
// allows — 4065/4096 per decision for kind 0, ransMaxFreq/ransM for
// kinds 1 and 2.
func TestDensestStreamFitsBound(t *testing.T) {
	q := make([]byte, 1<<20)
	for _, tc := range []struct {
		kind     int
		compress func([][]byte) ([]byte, error)
		lo, hi   float64
	}{
		{kindBinary, legacyCompress, 115, 122},
		{kindRANS, kind1Compress, 690, 708},
		{kindRANS4, Compress, 690, 708},
	} {
		data, err := tc.compress([][]byte{q})
		if err != nil {
			t.Fatal(err)
		}
		perByte := float64(len(q)) / float64(len(data)-8)
		if perByte > tc.hi || perByte < tc.lo || perByte > float64(maxScoresPerByte[tc.kind]) {
			t.Fatalf("kind %d: constant scores pack %.1f per byte, want [%v, %v] and at most %d", tc.kind, perByte, tc.lo, tc.hi, maxScoresPerByte[tc.kind])
		}
		if _, err := Decompress(data, []int{len(q)}); err != nil {
			t.Fatalf("kind %d: %v", tc.kind, err)
		}
	}
}

// encodeBit, oracleShiftLow, oracleEncodeScores and oracleCompress are
// the bit-at-a-time encoder Compress ran before encodeScores, kept as the
// reference the encode kernel must equal.
func (e *rcEncoder) encodeBit(p *uint16, bit int) {
	bound := (e.rng >> probBits) * uint32(*p)
	if bit == 0 {
		e.rng = bound
		*p += (1<<probBits - *p) >> adaptRate
	} else {
		e.low += uint64(bound)
		e.rng -= bound
		*p -= *p >> adaptRate
	}
	for e.rng < topValue {
		e.oracleShiftLow()
		e.rng <<= 8
	}
}

func (e *rcEncoder) oracleShiftLow() {
	if e.low < 0xFF000000 || e.low > 0xFFFFFFFF {
		temp := e.cache
		for {
			e.out = append(e.out, byte(uint64(temp)+(e.low>>32)))
			temp = 0xFF
			e.cacheSize--
			if e.cacheSize == 0 {
				break
			}
		}
		e.cache = byte(e.low >> 24)
	}
	e.cacheSize++
	e.low = (e.low << 8) & 0xFFFFFFFF
}

func (e *rcEncoder) oracleEncodeScores(q []byte, probs *[numContexts]uint16) error {
	q1, q2 := byte(0), byte(0)
	for _, s := range q {
		if s > fastq.MaxQuality {
			return fmt.Errorf("qual: score %d exceeds alphabet max %d", s, fastq.MaxQuality)
		}
		base := contextBase(q1, q2)
		node := 1
		for i := symbolBits - 1; i >= 0; i-- {
			bit := int(s>>uint(i)) & 1
			e.encodeBit(&probs[base+node], bit)
			node = node<<1 | bit
		}
		q2, q1 = q1, s
	}
	return nil
}

// freshEncoder is the coder state getEncoder hands out.
var freshEncoder = rcEncoder{rng: 0xFFFFFFFF, cacheSize: 1}

func oracleCompress(quals [][]byte) ([]byte, error) {
	enc := freshEncoder
	probs := getProbs()
	defer probsPool.Put(probs)
	for _, q := range quals {
		if err := enc.oracleEncodeScores(q, probs); err != nil {
			return nil, err
		}
	}
	for i := 0; i < 5; i++ {
		enc.oracleShiftLow()
	}
	return append(binary.LittleEndian.AppendUint64(nil, uint64(len(enc.out))), enc.out...), nil
}

// encodeBoth codes quals read by read with the kernel and the oracle,
// both started from the coder state start, and fails on the first stream
// byte, coder-state or model difference. It returns the flushed body.
func encodeBoth(t testing.TB, start rcEncoder, quals [][]byte) []byte {
	t.Helper()
	ke, oe := start, start
	ke.out, oe.out = nil, nil
	kp, op := getProbs(), getProbs()
	defer probsPool.Put(kp)
	defer probsPool.Put(op)
	for r, q := range quals {
		if err := ke.encodeScores(q, kp); err != nil {
			t.Fatal(err)
		}
		if err := oe.oracleEncodeScores(q, op); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ke.out, oe.out) {
			t.Fatalf("read %d (%d scores): kernel and oracle stream bytes differ", r, len(q))
		}
		if ke.low != oe.low || ke.rng != oe.rng || ke.cache != oe.cache || ke.cacheSize != oe.cacheSize {
			t.Fatalf("read %d (%d scores): kernel state (%#x %#x %#x %d), oracle (%#x %#x %#x %d)", r, len(q),
				ke.low, ke.rng, ke.cache, ke.cacheSize, oe.low, oe.rng, oe.cache, oe.cacheSize)
		}
	}
	if *kp != *op {
		t.Fatal("kernel and oracle leave different models")
	}
	body := ke.flush()
	for i := 0; i < 5; i++ {
		oe.oracleShiftLow()
	}
	if !bytes.Equal(body, oe.out) {
		t.Fatal("kernel and oracle flush different bytes")
	}
	return body
}

func TestEncodeKernelEqualsOracle(t *testing.T) {
	t.Run("streams", encodeKernelStreams)
	t.Run("carry runs", encodeKernelCarryRuns)
	t.Run("score out of range", encodeKernelRejects)
}

// The encode kernel equals the bit-at-a-time oracle — stream bytes, low,
// rng, cache and cacheSize after every read, and the adapted model — on
// the fixtures and read lengths TestKernelEqualsOracle decodes, and
// legacyCompress writes exactly the oracle's stream.
func encodeKernelStreams(t *testing.T) {
	streams := 10000
	if testing.Short() {
		streams = 1000
	}
	rng := rand.New(rand.NewSource(20))
	fills := []scoreFill{fillUniform, fillConstant, fillNormal, fillBinned}
	short := []int{0, 0, 1, 5, 6, 7, 150}
	for s := 0; s < streams; s++ {
		pick := func() int { return short[rng.Intn(len(short))] }
		if s%250 == 0 {
			pick = func() int { return 16000 }
		}
		quals, _ := randomReads(rng, fills[s%len(fills)], rng.Intn(6), pick)
		body := encodeBoth(t, freshEncoder, quals)
		data, err := legacyCompress(quals)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracleCompress(quals)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, want) || !bytes.Equal(data[8:], body) {
			t.Fatalf("stream %d: legacyCompress, the kernel and the oracle write different streams", s)
		}
	}
}

// A pending run of 0xFF bytes is resolved alike: both coders start with
// low just under a carry and thousands of bytes held back, so the next
// scores either carry through the whole run or release it unchanged.
func encodeKernelCarryRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	carried, released := 0, 0
	for s := 0; s < 2000; s++ {
		start := rcEncoder{
			low:       0xFF000000 | uint64(rng.Intn(1<<24)),
			rng:       topValue + uint32(rng.Intn(topValue)),
			cache:     byte(rng.Intn(256)),
			cacheSize: int64(2 + rng.Intn(5000)),
		}
		quals, _ := randomReads(rng, fillUniform, 1+rng.Intn(3), func() int { return 1 + rng.Intn(20) })
		body := encodeBoth(t, start, quals)
		if run := int(start.cacheSize); len(body) >= run {
			switch body[run-1] {
			case 0x00:
				carried++
			case 0xFF:
				released++
			}
		}
	}
	if carried < 100 || released < 100 {
		t.Fatalf("%d runs carried and %d released: the fixture no longer exercises both", carried, released)
	}
}

// A score outside the alphabet is the same error from the kernel, from
// the oracle and from Compress, wherever in the read set it sits.
func encodeKernelRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	quals, _ := randomReads(rng, fillNormal, 5, func() int { return 150 })
	for _, at := range [][2]int{{0, 0}, {2, 75}, {4, 149}} {
		saved := quals[at[0]][at[1]]
		quals[at[0]][at[1]] = fastq.MaxQuality + 1
		_, err := legacyCompress(quals)
		_, want := oracleCompress(quals)
		_, rans := Compress(quals)
		if err == nil || want == nil || rans == nil || err.Error() != want.Error() || rans.Error() != want.Error() {
			t.Errorf("score %d at read %d position %d: the kernel says %v, the oracle %v, Compress %v", fastq.MaxQuality+1, at[0], at[1], err, want, rans)
		}
		quals[at[0]][at[1]] = saved
	}
	if _, err := legacyCompress(quals); err != nil {
		t.Fatalf("the restored reads: %v", err)
	}
}

// Legacy streams — kind 0 and kind 1, as containers written before kind
// 2 carry them — decode through Decompress to their scores, over every
// fixture and around the read lengths the decoders' fast loops turn on.
func TestLegacyStreamsDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	short := []int{0, 1, 6, 7, 150}
	for i, fill := range []scoreFill{fillUniform, fillConstant, fillNormal, fillBinned, fillWalk} {
		quals, lengths := randomReads(rng, fill, 40, func() int { return short[rng.Intn(len(short))] })
		for kind, compress := range []func([][]byte) ([]byte, error){kindBinary: legacyCompress, kindRANS: kind1Compress} {
			data, err := compress(quals)
			if err != nil {
				t.Fatal(err)
			}
			if int(data[7]) != kind {
				t.Fatalf("fixture %d: kind-%d stream has kind %d", i, kind, data[7])
			}
			got, err := Decompress(data, lengths)
			if err != nil {
				t.Fatalf("fixture %d kind %d: %v", i, kind, err)
			}
			for r := range quals {
				if !bytes.Equal(got[r], quals[r]) {
					t.Fatalf("fixture %d kind %d read %d does not round-trip", i, kind, r)
				}
			}
		}
	}
}

// oldDecompress is Decompress as it was before stream kinds: the whole
// length word is the body length.
func oldDecompress(data []byte, lengths []int) ([][]byte, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("qual: truncated stream header")
	}
	bodyLen := binary.LittleEndian.Uint64(data)
	if uint64(len(data)-8) < bodyLen {
		return nil, fmt.Errorf("qual: stream body truncated: have %d want %d", len(data)-8, bodyLen)
	}
	body := data[8 : 8+bodyLen]
	total := 0
	for r, l := range lengths {
		if l < 0 || l > maxScoresPerByte[kindBinary]*len(body) {
			return nil, fmt.Errorf("qual: read %d of length %d", r, l)
		}
		total += l
	}
	flat := make([]byte, total)
	if err := decodeBinary(body, flat, lengths, 0); err != nil {
		return nil, err
	}
	out := make([][]byte, len(lengths))
	for r, l := range lengths {
		out[r], flat = flat[:l], flat[l:]
	}
	return out, nil
}

// A reader that predates stream kinds refuses a kind-1 or kind-2
// stream cleanly, before decoding a score, and still reads a legacy one.
func TestOldReaderRejectsKind1(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	quals, lengths := randomReads(rng, fillNormal, 8, func() int { return 150 })
	for _, compress := range []func([][]byte) ([]byte, error){kind1Compress, Compress} {
		for _, n := range []int{0, 1, 8} {
			data, err := compress(quals[:n])
			if err != nil {
				t.Fatal(err)
			}
			if _, err := oldDecompress(data, lengths[:n]); err == nil || !strings.Contains(err.Error(), "stream body truncated") {
				t.Errorf("kind %d, %d reads: the old reader says %v, want %q", data[7], n, err, "stream body truncated")
			}
		}
	}
	legacy, err := legacyCompress(quals)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := oldDecompress(legacy, lengths); err != nil {
		t.Fatalf("the old reader on a legacy stream: %v", err)
	}
}
