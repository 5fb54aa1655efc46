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
	"slices"
	"strings"
	"testing"

	"sage/internal/genome"
	"sage/internal/simulate"
)

// refTables is a kind-1 or kind-2 stream's tables as the reference
// reads them: the frequency of every listed score of every context.
type refTables struct {
	listed [ransContexts]uint64
	freq   [ransContexts][numSymbols]uint32
}

// refParse reads the tables of a kind-1 or kind-2 body, one field at a
// time with its own bounds check, and returns them with the offset of
// the state block.
func refParse(body []byte) (t refTables, pos int, err error) {
	if len(body) < 2 {
		return t, 0, errors.New("no context mask")
	}
	present := binary.LittleEndian.Uint16(body)
	pos = 2
	for c := 0; c < ransContexts; c++ {
		if present&(1<<c) == 0 {
			continue
		}
		if pos+8 > len(body) {
			return t, 0, fmt.Errorf("context %d: no score mask", c)
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
				return t, 0, fmt.Errorf("context %d score %d: no frequency", c, s)
			}
			pos += n
			if f < 1 || f > ransMaxFreq {
				return t, 0, fmt.Errorf("context %d score %d: frequency %d", c, s, f)
			}
			t.freq[c][s] = uint32(f)
			sum += f
		}
		if sum != ransM {
			return t, 0, fmt.Errorf("context %d: frequencies sum to %d", c, sum)
		}
	}
	return t, pos, nil
}

// refLayout places the n scores of reads of the given lengths in lanes
// lanes, as kinds 1 (one lane) and 2 (four) do: lane l holds the flat
// indices [l·n/lanes, (l+1)·n/lanes), and order lists every index in
// the order the decoder takes them, step by step and within a step lane
// by lane. restart marks the indices whose context is 0: the first of
// every read and of every lane.
func refLayout(lengths []int, lanes int) (order []int, restart []bool) {
	n := 0
	for _, l := range lengths {
		n += l
	}
	restart = make([]bool, n+1)
	at := 0
	for _, l := range lengths {
		restart[at] = true
		at += l
	}
	for l := 0; l < lanes; l++ {
		restart[l*n/lanes] = true
	}
	for step := 0; step <= n/lanes; step++ {
		for l := 0; l < lanes; l++ {
			if i := l*n/lanes + step; i < (l+1)*n/lanes {
				order = append(order, i)
			}
		}
	}
	return order, restart[:n]
}

// refDecode is the plain reference decoder of kinds 1 (lanes 1) and 2
// (lanes 4): per score a linear search of the context's cumulative
// frequencies, per byte a bounds check. The fuzz targets hold
// Decompress to it.
func refDecode(body []byte, lengths []int, lanes int) ([][]byte, error) {
	t, pos, err := refParse(body)
	if err != nil {
		return nil, err
	}
	x := make([]uint32, lanes)
	for l := range x {
		if pos+4 > len(body) {
			return nil, errors.New("no state")
		}
		x[l] = binary.BigEndian.Uint32(body[pos:])
		pos += 4
		if x[l] < ransL || x[l] >= ransL<<8 {
			return nil, fmt.Errorf("lane %d: initial state %#x", l, x[l])
		}
	}
	order, restart := refLayout(lengths, lanes)
	flat := make([]byte, len(restart))
	for _, i := range order {
		l := 0
		for (l+1)*len(flat)/lanes <= i {
			l++
		}
		c := 0
		if !restart[i] {
			c = int(flat[i-1]) / 4
		}
		if t.listed[c] == 0 {
			return nil, fmt.Errorf("score %d: context %d has no table", i, c)
		}
		slot := x[l] % ransM
		s, cum := 0, uint32(0)
		for ; t.freq[c][s] == 0 || slot >= cum+t.freq[c][s]; s++ {
			cum += t.freq[c][s]
		}
		x[l] = t.freq[c][s]*(x[l]/ransM) + slot - cum
		for x[l] < ransL {
			if pos >= len(body) {
				return nil, fmt.Errorf("score %d: out of bytes", i)
			}
			x[l] = x[l]<<8 | uint32(body[pos])
			pos++
		}
		flat[i] = byte(s)
	}
	if pos != len(body) {
		return nil, fmt.Errorf("%d bytes left", len(body)-pos)
	}
	for l := range x {
		if x[l] != ransL {
			return nil, fmt.Errorf("lane %d: final state %#x", l, x[l])
		}
	}
	out := make([][]byte, len(lengths))
	for r, l := range lengths {
		out[r], flat = flat[:l], flat[l:]
	}
	return out, nil
}

// refStream is the plain reference encoder of kinds 1 and 2: it codes
// quals backwards under t's frequencies, lane l from state start[l],
// emitting one byte at a time, and returns the stream with t's tables —
// whatever they hold, so tests can write streams that break the rules.
// One start state makes a kind-1 stream, four a kind-2 one.
func refStream(t *refTables, quals [][]byte, start ...uint32) []byte {
	var cum [ransContexts][numSymbols]uint32
	for c := range cum {
		sum := uint32(0)
		for s := range cum[c] {
			cum[c][s] = sum
			sum += t.freq[c][s]
		}
	}
	var flat []byte
	for _, q := range quals {
		flat = append(flat, q...)
	}
	lanes := len(start)
	order, restart := refLayout(lengthsOf(quals), lanes)
	x := append([]uint32(nil), start...)
	var rev []byte
	for k := len(order) - 1; k >= 0; k-- {
		i := order[k]
		l := 0
		for (l+1)*len(flat)/lanes <= i {
			l++
		}
		c := 0
		if !restart[i] {
			c = int(flat[i-1]) / 4
		}
		s := flat[i]
		f := t.freq[c][s]
		for uint64(x[l]) >= uint64(ransL/ransM*256)*uint64(f) {
			rev = append(rev, byte(x[l]))
			x[l] >>= 8
		}
		x[l] = x[l]/f*ransM + x[l]%f + cum[c][s]
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
	for _, x := range x {
		body = binary.BigEndian.AppendUint32(body, x)
	}
	for i := len(rev) - 1; i >= 0; i-- {
		body = append(body, rev[i])
	}
	kind := uint64(kindRANS)
	if lanes == ransLanes {
		kind = kindRANS4
	}
	return append(binary.LittleEndian.AppendUint64(nil, kind<<lengthBits|uint64(len(body))), body...)
}

// kind2Start is the start of every lane of a kind-2 stream.
var kind2Start = []uint32{ransL, ransL, ransL, ransL}

// kind1Compress is Compress as it was for kind 1: one state through the
// whole block, contexts restarting only at reads. It makes the kind-1
// streams containers written before kind 2 carry.
func kind1Compress(quals [][]byte) ([]byte, error) {
	e := new(ransEncoder)
	coded, err := e.count(quals, 1)
	if err != nil {
		return nil, err
	}
	tables, buf := e.writeTables(len(coded), 1)
	p, x := len(buf), uint32(ransL)
	for j := len(coded) - 1; j >= 0; j-- {
		p, x = e.sym(coded[j]).put(buf, p, x)
	}
	p -= 4
	binary.BigEndian.PutUint32(buf[p:], x)
	return stream(kindRANS, tables, buf[p:]), nil
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

var update = flag.Bool("update", false, "rewrite the golden streams testdata/kind*.* from the current encoders")

// The kind-1 stream is pinned: testdata/kind1.scores (one read per line,
// Phred+33) compresses to exactly testdata/kind1.stream, and that stream
// decodes back. Nothing writes kind 1 any more; the test-only encoder
// that makes its legacy streams must still make these bytes.
func TestGoldenKind1(t *testing.T) { testGolden(t, "kind1", 26, kind1Compress) }

// The kind-2 stream, what Compress writes, is pinned the same way. A
// failure here means the format or the normalisation drifted; a
// deliberate change regenerates both files with -update and says so in
// docs/FORMAT.md.
func TestGoldenKind2(t *testing.T) { testGolden(t, "kind2", 32, Compress) }

// testGolden checks testdata/<name>.scores against <name>.stream, after
// writing both from reads drawn with seed when -update is set: short
// reads of every generator, empty and one-score reads among them, and a
// long read.
func testGolden(t *testing.T, name string, seed int64, compress func([][]byte) ([]byte, error)) {
	scoresPath, streamPath := filepath.Join("testdata", name+".scores"), filepath.Join("testdata", name+".stream")
	if *update {
		rng := rand.New(rand.NewSource(seed))
		var quals [][]byte
		for _, fill := range []scoreFill{fillWalk, fillNormal, fillBinned, fillConstant} {
			qs, _ := randomReads(rng, fill, 6, func() int { return []int{0, 1, 7, 150}[rng.Intn(4)] })
			quals = append(quals, qs...)
		}
		long := longReads(t, seed, 1)[0]
		quals = append(quals, long[:min(len(long), 2000)])
		var text bytes.Buffer
		for _, q := range quals {
			for _, s := range q {
				text.WriteByte(s + 33)
			}
			text.WriteByte('\n')
		}
		data, err := compress(quals)
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
	data, err := compress(quals)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("the encoder writes %d bytes that differ from the %d golden ones", len(data), len(want))
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

// Decompress refuses every kind-1 and kind-2 stream that breaks a
// reader rule, and a stream of a kind it does not know, and names the
// rule; the same tables and scores within the rules decode.
func TestRANSRejects(t *testing.T) {
	quals := [][]byte{{40, 40, 41, 30}, {41, 40}}
	lengths := lengthsOf(quals)
	t.Run("kind 1", func(t *testing.T) { ransRejects(t, quals, kind1Compress, []uint32{ransL}) })
	t.Run("kind 2", func(t *testing.T) {
		data := ransRejects(t, quals, Compress, kind2Start)
		valid, first, err := refParse(data[8:])
		if err != nil {
			t.Fatal(err)
		}
		withBody := func(body []byte) []byte {
			return append(binary.LittleEndian.AppendUint64(nil, kindRANS4<<lengthBits|uint64(len(body))), body...)
		}
		type rejected struct {
			name string
			data []byte
			want string
		}
		cases := []rejected{
			{"truncated state block", withBody(data[8 : 8+first+4*ransLanes-1]), "state truncated"},
			{"trailing byte", withBody(append(bytes.Clone(data[8:]), 0)), "left over"},
		}
		// Every lane's initial state is checked on both sides of its
		// range, and every lane's final state.
		for l := 0; l < ransLanes; l++ {
			for _, x := range []uint32{ransL - 1, ransL << 8} {
				bad := bytes.Clone(data)
				binary.BigEndian.PutUint32(bad[8+first+4*l:], x)
				cases = append(cases, rejected{fmt.Sprintf("lane %d initial state %#x", l, x), bad, fmt.Sprintf("initial state %#x of lane %d", x, l)})
			}
			start := slices.Clone(kind2Start)
			start[l]++
			cases = append(cases, rejected{fmt.Sprintf("lane %d final state", l), refStream(&valid, quals, start...), fmt.Sprintf("final state 0x800001 of lane %d", l)})
		}
		for _, tc := range cases {
			if _, err := refDecode(tc.data[8:], lengths, ransLanes); err == nil {
				t.Errorf("%s: the reference decoder accepts the stream", tc.name)
			}
			_, err := Decompress(tc.data, lengths)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.want)
			}
		}
		unknown := bytes.Clone(data)
		unknown[7] = kindRANS4 + 1
		if _, err := Decompress(unknown, lengths); err == nil || !strings.Contains(err.Error(), "unsupported stream kind 3") {
			t.Errorf("kind 3: error %v, want one naming it", err)
		}
	})
}

// ransRejects holds the stream compress writes for quals to the rules
// both kinds share, crafting each broken stream with refStream from the
// lane states start, and returns the valid stream.
func ransRejects(t *testing.T, quals [][]byte, compress func([][]byte) ([]byte, error), start []uint32) []byte {
	lanes := len(start)
	lengths := lengthsOf(quals)
	data, err := compress(quals)
	if err != nil {
		t.Fatal(err)
	}
	valid, first, err := refParse(data[8:])
	if err != nil {
		t.Fatal(err)
	}
	if crafted := refStream(&valid, quals, start...); !bytes.Equal(crafted, data) {
		t.Fatal("the reference encoder and the encoder write different streams")
	}
	// tables returns a copy of the valid tables changed by edit.
	tables := func(edit func(t *refTables)) *refTables {
		t := valid
		edit(&t)
		return &t
	}
	withBody := func(body []byte) []byte {
		return append(bytes.Clone(data[:8:8]), body...)
	}
	setLen := func(data []byte) []byte {
		binary.LittleEndian.PutUint64(data, uint64(data[7])<<lengthBits|uint64(len(data)-8))
		return data
	}
	lowState := bytes.Clone(data)
	binary.BigEndian.PutUint32(lowState[8+first:], ransL-1)
	final := slices.Clone(start)
	final[0]++
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"bad sum", refStream(tables(func(t *refTables) { t.freq[0][40]-- }), quals, start...), "sum to 4095"},
		{"sum past M", refStream(tables(func(t *refTables) { t.freq[0][40]++ }), quals, start...), "sum past 4096"},
		{"zero frequency", refStream(tables(func(t *refTables) { t.listed[0] |= 1 << 3 }), quals, start...), "frequency 0"},
		{"frequency above cap", refStream(tables(func(t *refTables) {
			t.freq[0][40], t.freq[0][41] = ransMaxFreq+1, ransM-ransMaxFreq-1
		}), quals, start...), "frequency 4065"},
		{"context with no table", refStream(tables(func(t *refTables) { t.listed[10] = 0 }), quals, start...), "context 10, which has no table"},
		{"final state", refStream(&valid, quals, final...), "final state 0x800001"},
		{"initial state", lowState, "initial state 0x7fffff"},
		{"trailing byte", setLen(withBody(append(bytes.Clone(data[8:]), 0))), "left over"},
		{"truncated table", setLen(withBody(data[8 : 8+2+8+1])), "tables truncated in context 0"},
		{"truncated mask", setLen(withBody(data[8 : 8+2+3])), "tables truncated in context 0"},
		{"truncated state", setLen(withBody(data[8 : 8+first+2])), "state truncated"},
	} {
		if _, err := refDecode(tc.data[8:], lengths, lanes); err == nil {
			t.Errorf("%s: the reference decoder accepts the stream", tc.name)
		}
		_, err := Decompress(tc.data, lengths)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
	if _, err := Decompress(data, lengths); err != nil {
		t.Fatalf("the unmodified stream: %v", err)
	}
	return data
}

// Every stream Compress and the kind-1 encoder write is the reference
// encoder's stream under the tables it declares, and obeys the reader
// rules: over reads from every fixture, of lengths around the decoder's
// chunk and lane boundaries, with empty reads and read sets, and over
// long reads where a rare score gets frequency 1.
func TestEncodeEqualsReference(t *testing.T) {
	for _, kind := range []struct {
		name     string
		compress func([][]byte) ([]byte, error)
		start    []uint32
	}{{"kind 1", kind1Compress, []uint32{ransL}}, {"kind 2", Compress, kind2Start}} {
		t.Run(kind.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(28))
			fills := []scoreFill{fillUniform, fillConstant, fillNormal, fillBinned, fillWalk}
			short := []int{0, 0, 1, 2, 3, 150}
			ones := 0
			for s := 0; s < 2050; s++ {
				quals, lengths := randomReads(rng, fills[s%len(fills)], rng.Intn(6), func() int { return short[rng.Intn(len(short))] })
				if s >= 2000 {
					quals, lengths = randomReads(rng, fillRare, 3, func() int { return 20000 })
				}
				data, err := kind.compress(quals)
				if err != nil {
					t.Fatal(err)
				}
				tabs, _, err := refParse(data[8:])
				if err != nil {
					t.Fatalf("stream %d breaks a table rule: %v", s, err)
				}
				if want := refStream(&tabs, quals, kind.start...); !bytes.Equal(data, want) {
					t.Fatalf("stream %d: the encoder and the reference encoder differ", s)
				}
				for c := range tabs.freq {
					for _, f := range tabs.freq[c] {
						if f == 1 {
							ones++
						}
					}
				}
				ref, err := refDecode(data[8:], lengths, len(kind.start))
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
		})
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
