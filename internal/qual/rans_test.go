package qual

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sage/internal/genome"
	"sage/internal/simulate"
)

// refTables is a kind-1 stream's tables as the reference reads them:
// the frequency of every listed score of every context.
type refTables struct {
	listed [ransContexts]uint64
	freq   [ransContexts][numSymbols]uint32
}

// refParse reads the tables and the initial state of a kind-1 body, one
// field at a time with its own bounds check, and returns them with the
// offset of the first renormalisation byte.
func refParse(body []byte) (t refTables, x uint32, pos int, err error) {
	if len(body) < 2 {
		return t, 0, 0, errors.New("no context mask")
	}
	present := binary.LittleEndian.Uint16(body)
	pos = 2
	for c := 0; c < ransContexts; c++ {
		if present&(1<<c) == 0 {
			continue
		}
		if pos+8 > len(body) {
			return t, 0, 0, fmt.Errorf("context %d: no score mask", c)
		}
		t.listed[c] = binary.LittleEndian.Uint64(body[pos:])
		pos += 8
		sum := uint64(0)
		for s := 0; s < numSymbols; s++ {
			if t.listed[c]&(1<<s) == 0 {
				continue
			}
			f, n := binary.Uvarint(body[pos:])
			if n <= 0 {
				return t, 0, 0, fmt.Errorf("context %d score %d: no frequency", c, s)
			}
			pos += n
			if f < 1 || f > ransMaxFreq {
				return t, 0, 0, fmt.Errorf("context %d score %d: frequency %d", c, s, f)
			}
			t.freq[c][s] = uint32(f)
			sum += f
		}
		if sum != ransM {
			return t, 0, 0, fmt.Errorf("context %d: frequencies sum to %d", c, sum)
		}
	}
	if pos+4 > len(body) {
		return t, 0, 0, errors.New("no state")
	}
	x = binary.BigEndian.Uint32(body[pos:])
	if x < ransL {
		return t, 0, 0, fmt.Errorf("initial state %#x", x)
	}
	return t, x, pos + 4, nil
}

// refDecodeRANS is the plain reference decoder of kind 1: per score a
// linear search of the context's cumulative frequencies, per byte a
// bounds check. The fuzz targets hold Decompress to it.
func refDecodeRANS(body []byte, lengths []int) ([][]byte, error) {
	t, x, pos, err := refParse(body)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(lengths))
	for r, l := range lengths {
		out[r] = make([]byte, l)
		c := 0
		for i := range out[r] {
			if t.listed[c] == 0 {
				return nil, fmt.Errorf("read %d score %d: context %d has no table", r, i, c)
			}
			slot := x % ransM
			s, cum := 0, uint32(0)
			for ; t.freq[c][s] == 0 || slot >= cum+t.freq[c][s]; s++ {
				cum += t.freq[c][s]
			}
			x = t.freq[c][s]*(x/ransM) + slot - cum
			for x < ransL {
				if pos >= len(body) {
					return nil, fmt.Errorf("read %d score %d: out of bytes", r, i)
				}
				x = x<<8 | uint32(body[pos])
				pos++
			}
			out[r][i] = byte(s)
			c = s / 4
		}
	}
	if pos != len(body) {
		return nil, fmt.Errorf("%d bytes left", len(body)-pos)
	}
	if x != ransL {
		return nil, fmt.Errorf("final state %#x", x)
	}
	return out, nil
}

// refStream is the plain reference encoder of kind 1: it codes quals
// backwards from state x0 under t's frequencies, emitting one byte at a
// time, and returns the stream with t's tables — whatever they hold, so
// tests can write streams that break the rules.
func refStream(t *refTables, quals [][]byte, x0 uint32) []byte {
	var start [ransContexts][numSymbols]uint32
	for c := range start {
		cum := uint32(0)
		for s := range start[c] {
			start[c][s] = cum
			cum += t.freq[c][s]
		}
	}
	var rev []byte
	x := x0
	for r := len(quals) - 1; r >= 0; r-- {
		for i := len(quals[r]) - 1; i >= 0; i-- {
			c := 0
			if i > 0 {
				c = int(quals[r][i-1]) / 4
			}
			s := quals[r][i]
			f := t.freq[c][s]
			for uint64(x) >= uint64(ransL/ransM*256)*uint64(f) {
				rev = append(rev, byte(x))
				x >>= 8
			}
			x = x/f*ransM + x%f + start[c][s]
		}
	}
	var present uint16
	for c, m := range t.listed {
		if m != 0 {
			present |= 1 << c
		}
	}
	body := binary.LittleEndian.AppendUint16(nil, present)
	for c, m := range t.listed {
		if m == 0 {
			continue
		}
		body = binary.LittleEndian.AppendUint64(body, m)
		for s := 0; s < numSymbols; s++ {
			if m&(1<<s) != 0 {
				body = binary.AppendUvarint(body, uint64(t.freq[c][s]))
			}
		}
	}
	body = binary.BigEndian.AppendUint32(body, x)
	for i := len(rev) - 1; i >= 0; i-- {
		body = append(body, rev[i])
	}
	return append(binary.LittleEndian.AppendUint64(nil, kindRANS<<lengthBits|uint64(len(body))), body...)
}

// longReads are n reads' scores from the long-read simulator at the
// repository benchmark's long_plain settings.
func longReads(t testing.TB, seed int64, n int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	donor, _ := genome.Donor(rng, genome.Random(rng, 160000), genome.HumanLikeProfile())
	p := simulate.DefaultLongProfile()
	p.MeanLen, p.MaxLen = 5000, 16000
	p.ErrRate = 0.10
	p.ChimeraRate = 0.05
	rs, err := simulate.New(rng, donor).LongReads(n, p)
	if err != nil {
		t.Fatal(err)
	}
	quals := make([][]byte, n)
	for i, r := range rs.Records {
		quals[i] = r.Qual
	}
	return quals
}

func lengthsOf(quals [][]byte) []int {
	out := make([]int, len(quals))
	for i, q := range quals {
		out[i] = len(q)
	}
	return out
}

var update = flag.Bool("update", false, "rewrite testdata/kind1.* from the current encoder")

// The kind-1 stream is pinned: testdata/kind1.scores (one read per line,
// Phred+33) compresses to exactly testdata/kind1.stream, and that stream
// decodes back. A failure here means the format or the normalisation
// drifted; a deliberate change regenerates both with -update and says
// so in docs/FORMAT.md.
func TestGoldenKind1(t *testing.T) {
	scoresPath, streamPath := filepath.Join("testdata", "kind1.scores"), filepath.Join("testdata", "kind1.stream")
	if *update {
		rng := rand.New(rand.NewSource(26))
		var quals [][]byte
		for _, fill := range []scoreFill{fillWalk, fillNormal, fillBinned, fillConstant} {
			qs, _ := randomReads(rng, fill, 6, func() int { return []int{0, 1, 7, 150}[rng.Intn(4)] })
			quals = append(quals, qs...)
		}
		long := longReads(t, 26, 1)[0]
		quals = append(quals, long[:min(len(long), 2000)])
		var text bytes.Buffer
		for _, q := range quals {
			for _, s := range q {
				text.WriteByte(s + 33)
			}
			text.WriteByte('\n')
		}
		data, err := Compress(quals)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(scoresPath, text.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(streamPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	text, err := os.ReadFile(scoresPath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(streamPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(text), "\n"), "\n")
	quals := make([][]byte, len(lines))
	for i, l := range lines {
		quals[i] = []byte(l)
		for j := range quals[i] {
			quals[i][j] -= 33
		}
	}
	data, err := Compress(quals)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("Compress writes %d bytes that differ from the %d golden ones", len(data), len(want))
	}
	got, err := Decompress(want, lengthsOf(quals))
	if err != nil {
		t.Fatal(err)
	}
	for r := range quals {
		if !bytes.Equal(got[r], quals[r]) {
			t.Fatalf("read %d of the golden stream decodes differently", r)
		}
	}
}

// Kind 1 costs no more bits per score than kind 0 on any fixture, the
// tables included: 256-read shards of 150 scores from each generator,
// and 8-read shards of the benchmark's long reads.
func TestBitsNoWorseThanLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	type fixture struct {
		name   string
		shards [][][]byte
	}
	var fixtures []fixture
	for _, fx := range []struct {
		name string
		fill scoreFill
	}{{"walk", fillWalk}, {"normal", fillNormal}, {"binned", fillBinned}, {"constant", fillConstant}} {
		f := fixture{name: fx.name}
		for i := 0; i < 4; i++ {
			quals, _ := randomReads(rng, fx.fill, 256, func() int { return 150 })
			f.shards = append(f.shards, quals)
		}
		fixtures = append(fixtures, f)
	}
	long := fixture{name: "long"}
	for i := int64(0); i < 3; i++ {
		long.shards = append(long.shards, longReads(t, 27+i, 8))
	}
	fixtures = append(fixtures, long)

	for _, fx := range fixtures {
		var scores, newBytes, oldBytes int
		for _, quals := range fx.shards {
			data, err := Compress(quals)
			if err != nil {
				t.Fatal(err)
			}
			legacy, err := legacyCompress(quals)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range quals {
				scores += len(q)
			}
			newBytes += len(data)
			oldBytes += len(legacy)
		}
		newBits, oldBits := 8*float64(newBytes)/float64(scores), 8*float64(oldBytes)/float64(scores)
		t.Logf("%-8s kind 0 %.3f, kind 1 %.3f bits/score", fx.name, oldBits, newBits)
		if newBytes > oldBytes {
			t.Errorf("%s: kind 1 takes %.3f bits/score, kind 0 %.3f", fx.name, newBits, oldBits)
		}
	}
}

// Decompress refuses every kind-1 stream that breaks a reader rule, and
// a stream of a kind it does not know, and names the rule; the same
// tables and scores within the rules decode.
func TestRANSRejects(t *testing.T) {
	quals := [][]byte{{40, 40, 41, 30}, {41, 40}}
	lengths := lengthsOf(quals)
	data, err := Compress(quals)
	if err != nil {
		t.Fatal(err)
	}
	valid, _, first, err := refParse(data[8:])
	if err != nil {
		t.Fatal(err)
	}
	if crafted := refStream(&valid, quals, ransL); !bytes.Equal(crafted, data) {
		t.Fatal("the reference encoder and Compress write different streams")
	}
	// tables returns a copy of the valid tables changed by edit.
	tables := func(edit func(t *refTables)) *refTables {
		t := valid
		edit(&t)
		return &t
	}
	withBody := func(body []byte) []byte {
		return append(binary.LittleEndian.AppendUint64(nil, kindRANS<<lengthBits|uint64(len(body))), body...)
	}
	lowState := bytes.Clone(data)
	binary.BigEndian.PutUint32(lowState[8+first-4:], ransL-1)
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"bad sum", refStream(tables(func(t *refTables) { t.freq[0][40]-- }), quals, ransL), "sum to 4095"},
		{"sum past M", refStream(tables(func(t *refTables) { t.freq[0][40]++ }), quals, ransL), "sum past 4096"},
		{"zero frequency", refStream(tables(func(t *refTables) { t.listed[0] |= 1 << 3 }), quals, ransL), "frequency 0"},
		{"frequency above cap", refStream(tables(func(t *refTables) {
			t.freq[0][40], t.freq[0][41] = ransMaxFreq+1, ransM-ransMaxFreq-1
		}), quals, ransL), "frequency 4065"},
		{"context with no table", refStream(tables(func(t *refTables) { t.listed[10] = 0 }), quals, ransL), "context 10, which has no table"},
		{"final state", refStream(&valid, quals, ransL+1), "final state 0x800001"},
		{"initial state", lowState, "initial state 0x7fffff"},
		{"trailing byte", withBody(append(bytes.Clone(data[8:]), 0)), "left over"},
		{"truncated table", withBody(data[8 : 8+2+8+1]), "tables truncated in context 0"},
		{"truncated mask", withBody(data[8 : 8+2+3]), "tables truncated in context 0"},
		{"truncated state", withBody(data[8 : 8+first-2]), "state truncated"},
	} {
		if _, err := refDecodeRANS(tc.data[8:], lengths); err == nil {
			t.Errorf("%s: the reference decoder accepts the stream", tc.name)
		}
		_, err := Decompress(tc.data, lengths)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
	unknown := bytes.Clone(data)
	unknown[7] = kindRANS + 1
	if _, err := Decompress(unknown, lengths); err == nil || !strings.Contains(err.Error(), "unsupported stream kind 2") {
		t.Errorf("kind 2: error %v, want one naming it", err)
	}
	if _, err := Decompress(data, lengths); err != nil {
		t.Fatalf("the unmodified stream: %v", err)
	}
}

// Every kind-1 stream Compress writes is the reference encoder's stream
// under the tables it declares, and obeys the reader rules: over reads
// from every fixture, of lengths around the decoder's one-test-per-read
// boundary, with empty reads and read sets, and over long reads where a
// rare score gets frequency 1.
func TestEncodeEqualsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	fills := []scoreFill{fillUniform, fillConstant, fillNormal, fillBinned, fillWalk}
	short := []int{0, 0, 1, 2, 3, 150}
	ones := 0
	for s := 0; s < 2050; s++ {
		quals, lengths := randomReads(rng, fills[s%len(fills)], rng.Intn(6), func() int { return short[rng.Intn(len(short))] })
		if s >= 2000 {
			quals, lengths = randomReads(rng, fillRare, 3, func() int { return 20000 })
		}
		data, err := Compress(quals)
		if err != nil {
			t.Fatal(err)
		}
		tabs, _, _, err := refParse(data[8:])
		if err != nil {
			t.Fatalf("stream %d breaks a table rule: %v", s, err)
		}
		if want := refStream(&tabs, quals, ransL); !bytes.Equal(data, want) {
			t.Fatalf("stream %d: Compress and the reference encoder differ", s)
		}
		for c := range tabs.freq {
			for _, f := range tabs.freq[c] {
				if f == 1 {
					ones++
				}
			}
		}
		ref, err := refDecodeRANS(data[8:], lengths)
		if err != nil {
			t.Fatalf("stream %d: the reference decoder: %v", s, err)
		}
		got, err := Decompress(data, lengths)
		if err != nil {
			t.Fatalf("stream %d: %v", s, err)
		}
		for r := range quals {
			if !bytes.Equal(got[r], quals[r]) || !bytes.Equal(ref[r], quals[r]) {
				t.Fatalf("stream %d read %d does not round-trip", s, r)
			}
		}
	}
	if ones == 0 {
		t.Fatal("no stream has a score of frequency 1: the fixtures no longer reach that step")
	}
}

// fillRare writes mostly one score, a few others once each: scores of
// frequency 1, the step newEncSym treats apart.
func fillRare(rng *rand.Rand, q []byte) {
	for i := range q {
		q[i] = 40
		if rng.Intn(5000) == 0 {
			q[i] = byte(rng.Intn(numSymbols))
		}
	}
}

// The division-free step equals the division it replaces for every
// frequency the rules allow, at the states either side of every
// quotient step in the range an encoder codes from, [2¹¹·f, 2¹⁹·f).
func TestEncSymMatchesDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for f := uint32(1); f <= ransMaxFreq; f++ {
		start := uint32(rng.Intn(int(ransM - f + 1)))
		sym := newEncSym(f, start)
		lo, hi := uint32(2048)*f, uint32(ransL>>ransScaleBits<<8)*f
		for k := 0; k < 64; k++ {
			x := lo + uint32(rng.Int63n(int64(hi-lo)))
			for _, x := range []uint32{lo, hi - 1, x, x - x%f, x - x%f + f - 1} {
				if x < lo || x >= hi {
					continue
				}
				q, _ := bits.Mul64(uint64(x), sym.rcp)
				got := x + sym.bias + uint32(q)*sym.cmpl
				if want := x/f*ransM + x%f + start; got != want {
					t.Fatalf("freq %d start %d state %d: %d, want %d", f, start, x, got, want)
				}
			}
		}
	}
}
