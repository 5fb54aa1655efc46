package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// meta records what a result was measured on and over, so that two result
// files can be told apart or shown to be comparable.
type meta struct {
	Workload   string  `json:"workload"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
	Rounds     int     `json:"rounds"`
	SetupReps  int     `json:"setup_reps"`
	Workers    int     `json:"workers"`
	// The dataset, by size and digest.
	InputSHA256     []string     `json:"input_sha256"`
	PlainBytes      int64        `json:"plain_bytes"`
	Records         recordDigest `json:"record_digest"`
	ContainerBytes  int          `json:"container_bytes"`
	ContainerSHA256 string       `json:"container_sha256"`
	Shards          int          `json:"shards"`
}

// result is one workload's result file. EndToEnd is filled by an untraced
// run, PerLayer by a traced one.
type result struct {
	Meta      meta                `json:"_meta"`
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	FailRatio float64             `json:"fail_ratio"`
	Failures  []string            `json:"failures,omitempty"`
	EndToEnd  map[string]measured `json:"end_to_end,omitempty"`
	PerLayer  map[string]measured `json:"per_layer,omitempty"`
}

func newResult(cfg config, w workload, p *prepared, t *tally, rounds int) *result {
	csum := sha256.Sum256(p.container)
	return &result{
		Meta: meta{
			Workload: w.Name, Commit: gitCommit(), GoVersion: runtime.Version(),
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel(),
			Seed: cfg.seed, Seconds: cfg.seconds, Scale: cfg.scale, Rounds: rounds,
			SetupReps: cfg.setupReps, Workers: p.workers,
			InputSHA256: p.ds.inputDigests(), PlainBytes: p.ds.plainBytes, Records: p.ds.digest,
			ContainerBytes: len(p.container), ContainerSHA256: hex.EncodeToString(csum[:]),
			Shards: p.stats.Shards,
		},
		Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed,
		FailRatio: float64(t.failed) / float64(max(1, t.attempted)),
		Failures:  t.messages,
	}
}

// merge folds a second run of the same workload (the traced one) into r.
func (r *result) merge(o *result) {
	r.Correct = r.Correct && o.Correct
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	r.FailRatio = float64(r.Failed) / float64(max(1, r.Attempted))
	r.Failures = append(r.Failures, o.Failures...)
	if o.EndToEnd != nil {
		r.EndToEnd = o.EndToEnd
	}
	if o.PerLayer != nil {
		r.PerLayer = o.PerLayer
	}
}

func (r *result) metrics() map[string]measured {
	all := make(map[string]measured, len(r.EndToEnd)+len(r.PerLayer))
	for k, v := range r.EndToEnd {
		all[k] = v
	}
	for k, v := range r.PerLayer {
		all[k] = v
	}
	return all
}

// line is the driver's contract: one JSON object, last on standard output.
func (r *result) line() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for k, m := range r.metrics() {
		out.Metrics[k] = value{m.Value, m.Unit}
	}
	return json.Marshal(out)
}

// table prints every metric by name with its unit, the statistic it is and
// the sample count and quartiles it rests on.
func (r *result) table(w io.Writer) {
	fmt.Fprintf(w, "%s  seed %d  %d rounds  %d/%d operations failed\n",
		r.Meta.Workload, r.Meta.Seed, r.Meta.Rounds, r.Failed, r.Attempted)
	for _, msg := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", msg)
	}
	all := r.metrics()
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			m, ok := all[d.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  %-30s %14.4f %-8s %-6s n=%-6d q1 %.4f  q3 %.4f\n",
				d.Name, m.Value, m.Unit, m.Stat, m.Samples.N, m.Samples.Q1, m.Samples.Q3)
		}
	}
}

func (r *result) write(dir string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, r.Meta.Workload+".json"), append(data, '\n'), 0o644)
}

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// gitCommit reads the checked-out commit from .git in the working directory
// without starting a process; "unknown" where there is none (the driver's
// checkout is not a repository).
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if sha, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(packed), "\n") {
		if sha, ok := strings.CutSuffix(l, " "+ref); ok {
			return sha
		}
	}
	return "unknown"
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's high-water resident set (VmHWM), in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb)
			return kb * 1024 / 1e6
		}
	}
	return 0
}
