package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// tiny is the test-only sizing: a twenty-fifth of the genome, one short round.
func tiny(t *testing.T) config {
	return config{
		seed: 7, seconds: 0, outDir: t.TempDir(), scale: 0.04,
		quantum: 5 * time.Millisecond, minRounds: 1, setupReps: 1,
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkJSON is the driver's view of the benchmark.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json to the tables the program
// prints from: same workloads, same metrics, same units, directions and bounds.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the program has %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if got := b.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the program has %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := b.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}
}

// TestEveryMetricEmitted runs both passes of every workload at the tiny size
// and checks that every metric BENCHMARK.json names comes out, finite and
// well spelled, that nothing failed, and that the traced pass left its spans.
func TestEveryMetricEmitted(t *testing.T) {
	b := readBenchmarkJSON(t)
	cfg := tiny(t)
	for _, bw := range b.Workloads {
		w, ok := findWorkload(bw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which the program does not have", bw.Name)
		}
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q is not spelled with [A-Za-z0-9_.-]", w.Name)
		}
		res, err := runEndToEnd(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := runTraced(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		res.merge(traced)
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: %d of %d operations failed: %v", w.Name, res.Failed, res.Attempted, res.Failures)
		}
		for _, m := range b.EndToEnd {
			got, ok := res.EndToEnd[m.Name]
			if !ok || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v (present %v), want a finite value above 0", w.Name, m.Name, got.Value, ok)
			}
			if !nameRE.MatchString(m.Name) || got.Unit != m.Unit {
				t.Errorf("%s: metric %q unit %q, BENCHMARK.json says %q", w.Name, m.Name, got.Unit, m.Unit)
			}
		}
		for _, m := range b.PerLayer {
			got, ok := res.PerLayer[m.Name]
			if !ok || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
				t.Errorf("%s: per-layer metric %s = %v (present %v), want a finite value", w.Name, m.Name, got.Value, ok)
			}
			if !nameRE.MatchString(m.Name) || got.Unit != m.Unit {
				t.Errorf("%s: metric %q unit %q, BENCHMARK.json says %q", w.Name, m.Name, got.Unit, m.Unit)
			}
		}
		// The layers that only the paired workload exercises read zero
		// elsewhere and above zero there.
		for _, name := range []string{"pargz.gunzip_ms", "reorder.sort_ms", "reorder.restore_ms", "reorder.spilled_runs"} {
			if got := res.PerLayer[name].Value; (got > 0) != w.Paired {
				t.Errorf("%s: %s = %v", w.Name, name, got)
			}
		}
		if cov := res.PerLayer["trace.coverage_ingest"].Value; cov < 0.5 || cov > 1.5 {
			t.Errorf("%s: the layer spans cover %.2f of the one-worker ingest", w.Name, cov)
		}
		line, err := res.line()
		if err != nil {
			t.Fatal(err)
		}
		var contract struct {
			Correct   *bool
			Attempted *int
			Failed    *int
			Metrics   map[string]struct {
				Value *float64
				Unit  *string
			}
		}
		if err := json.Unmarshal(line, &contract); err != nil || contract.Correct == nil || contract.Attempted == nil || contract.Failed == nil ||
			len(contract.Metrics) != len(endToEnd)+len(perLayer) {
			t.Errorf("%s: result line %s does not meet the contract (%v)", w.Name, line, err)
		}

		data, err := os.ReadFile(filepath.Join(cfg.outDir, w.Name+".trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(data, &spans); err != nil {
			t.Fatal(err)
		}
		children := 0
		for i, s := range spans {
			if s.ID != i || s.EndNS < s.StartNS || s.Workload != w.Name || s.Parent >= i {
				t.Fatalf("%s: span %d is malformed: %+v", w.Name, i, s)
			}
			if s.Parent >= 0 && spans[s.Parent].Name == "core.compress" {
				children++
			}
		}
		if children == 0 {
			t.Errorf("%s: no span names a core.compress span as its parent", w.Name)
		}
	}
}

// TestVerifierIsNotVacuous damages an output on each of the two read paths
// and expects the failure count, and with it fail_ratio, to rise.
func TestVerifierIsNotVacuous(t *testing.T) {
	cfg := tiny(t)
	for _, name := range []string{"short_plain", "paired_gz_reorder"} {
		w, _ := findWorkload(name)
		var tl tally
		p, err := prepare(cfg, w, &tl)
		if err != nil {
			t.Fatal(err)
		}
		if tl.failed != 0 {
			t.Fatalf("%s: set-up already failed: %v", name, tl.messages)
		}

		// One flipped byte in the last shard's block.
		bad := append([]byte(nil), p.container...)
		bad[len(bad)-10] ^= 0x40
		tl.op(p.ds.verifyDecode(bad, 1, cfg.tmpDir()))
		if tl.failed != 1 {
			t.Errorf("%s: a flipped block byte did not fail the decode check", name)
		}

		// A response whose CRC-32 is not the reference's.
		ref := *p.ref
		ref.crcs = append([]uint32(nil), ref.crcs...)
		ref.crcs[0] ^= 1
		srv, err := startServer(p.container, 1<<30, 1)
		if err != nil {
			t.Fatal(err)
		}
		c := srv.newClient(&ref, nil, -1)
		c.sweep()
		srv.close()
		tl.requests(len(ref.lens), c.failed)
		if c.failed != 1 || tl.failed != 2 {
			t.Errorf("%s: a response with the wrong digest did not fail: client %d, tally %d", name, c.failed, tl.failed)
		}
		res := newResult(cfg, w, p, &tl, 0)
		if res.Correct || res.FailRatio <= 0 {
			t.Errorf("%s: result says correct=%v fail_ratio=%v after two failures", name, res.Correct, res.FailRatio)
		}
	}
}

func TestRecordDigestIgnoresOrderOnly(t *testing.T) {
	a := digestOf([]byte("@r1\nACGT\n+\nIIII\n@r2\nTTTT\n+\nHHHH\n"))
	b := digestOf([]byte("@r2\nTTTT\n+\nHHHH\n@r1\nACGT\n+\nIIII\n"))
	if a != b || a.Records != 2 {
		t.Errorf("reordered records digest differently: %+v vs %+v", a, b)
	}
	for _, damaged := range []string{
		"@r1\nACGT\n+\nIIII\n@r2\nTTTA\n+\nHHHH\n", // one base changed
		"@r1\nACGT\n+\nIIII\n",                     // a record missing
		"@r1\nACGT\n+\nIIII\n@r2\nTTTT\n+\nHH",     // truncated
	} {
		if digestOf([]byte(damaged)) == a {
			t.Errorf("damaged text %q digests like the original", damaged)
		}
	}
}

func TestAgree(t *testing.T) {
	mk := func() *result {
		r := &result{Meta: meta{Workload: "short_plain", Seed: 1, Scale: 1, InputSHA256: []string{"ab"}}, Correct: true, Attempted: 10}
		r.EndToEnd = map[string]measured{}
		for _, d := range endToEnd {
			r.EndToEnd[d.Name] = measured{Value: 10, Unit: d.Unit}
		}
		return r
	}
	a, b := mk(), mk()
	if d := agree(a, b); len(d) != 0 {
		t.Errorf("identical results disagree: %v", d)
	}
	set := func(r *result, name string, v float64) {
		m := r.EndToEnd[name]
		m.Value = v
		r.EndToEnd[name] = m
	}
	set(b, "ingest_mbps", 10.5) // within its bound
	if d := agree(a, b); len(d) != 0 {
		t.Errorf("a 5%% difference in ingest_mbps disagrees: %v", d)
	}
	set(b, "ingest_mbps", 13)
	if d := agree(a, b); len(d) != 1 {
		t.Errorf("a 30%% difference in ingest_mbps: %v", d)
	}
	b = mk()
	set(b, "ratio", 10.0001)
	if d := agree(a, b); len(d) != 1 {
		t.Errorf("a ratio that does not repeat: %v", d)
	}
	b = mk()
	b.Failed = 1
	b.Meta.InputSHA256 = []string{"cd"}
	if d := agree(a, b); len(d) != 2 {
		t.Errorf("a failed operation and another input: %v", d)
	}
}
