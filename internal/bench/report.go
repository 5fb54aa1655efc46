package bench

import (
	"fmt"
	"math"
	"strings"
)

// Table is a rendered experiment result.
type Table struct {
	ID     string // e.g. "fig13"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// Metrics is the machine-readable summary of the experiment —
	// key figures (latency percentiles in milliseconds, speedups,
	// ratios) that sagebench -json collects into BENCH_7.json. Not
	// rendered in the text table.
	Metrics map[string]float64
	// Measured holds the summary figures that are wall-clock times or
	// rates of the host running the suite, which change run to run:
	// sagebench -json writes them apart from Metrics, which stays the
	// same for a given scale.
	Measured map[string]float64
}

// Metric records one machine-readable result figure on the table.
func (t *Table) Metric(name string, v float64) {
	if t.Metrics == nil {
		t.Metrics = make(map[string]float64)
	}
	t.Metrics[name] = v
}

// MeasuredMetric records one machine-readable figure timed on this host.
func (t *Table) MeasuredMetric(name string, v float64) {
	if t.Measured == nil {
		t.Measured = make(map[string]float64)
	}
	t.Measured[name] = v
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// f2 formats a float with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// f1 formats a float with one decimal.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// pct formats a fraction as a percentage.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// geomean returns the geometric mean of positive values.
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		if v <= 0 {
			return 0
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}
