package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// Prometheus text exposition (version 0.0.4), hand-rolled: HELP and
// TYPE lines per family, then samples. Histograms follow the standard
// convention — cumulative <name>_bucket{le="..."} series in seconds,
// a "+Inf" bucket, and <name>_sum / <name>_count. Families with no
// children (an empty vec) are skipped entirely, so every emitted
// "# TYPE" line is always followed by at least one sample — the
// invariant the CI smoke asserts.

// ContentType is the value to serve /metrics under.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every registered family in registration
// order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, fam := range r.families() {
		switch f := fam.(type) {
		case *Counter:
			writeHeader(bw, f.name, f.help, "counter")
			writeSample(bw, f.name, f.labels, "", float64(f.Value()))
		case *funcGauge:
			writeHeader(bw, f.name, f.help, "gauge")
			writeSample(bw, f.name, "", "", float64(f.fn()))
		case *Histogram:
			writeHeader(bw, f.name, f.help, "histogram")
			writeHistogram(bw, f)
		case *CounterVec:
			children := f.children()
			if len(children) == 0 {
				continue
			}
			writeHeader(bw, f.name, f.help, "counter")
			for _, c := range children {
				writeSample(bw, c.name, c.labels, "", float64(c.Value()))
			}
		case *HistogramVec:
			children := f.children()
			if len(children) == 0 {
				continue
			}
			writeHeader(bw, f.name, f.help, "histogram")
			for _, h := range children {
				writeHistogram(bw, h)
			}
		}
	}
	return bw.Flush()
}

func writeHeader(w *bufio.Writer, name, help, kind string) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
}

// writeSample emits one "name{labels,extra} value" line. labels and
// extra are preformatted `k="v"` terms, either possibly empty.
func writeSample(w *bufio.Writer, name, labels, extra string, v float64) {
	w.WriteString(name)
	if labels != "" || extra != "" {
		w.WriteByte('{')
		w.WriteString(labels)
		if labels != "" && extra != "" {
			w.WriteByte(',')
		}
		w.WriteString(extra)
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	w.WriteString(formatValue(v))
	w.WriteByte('\n')
}

// writeHistogram emits the cumulative bucket series plus sum and count.
// One atomic snapshot drives all three, so the exposition is internally
// consistent: the +Inf bucket always equals the count.
func writeHistogram(w *bufio.Writer, h *Histogram) {
	counts, total := h.snapshot()
	cum := int64(0)
	for i, bound := range h.bounds {
		cum += counts[i]
		le := fmt.Sprintf("le=%q", formatValue(float64(bound)/1e9))
		writeSample(w, h.name+"_bucket", h.labels, le, float64(cum))
	}
	writeSample(w, h.name+"_bucket", h.labels, `le="+Inf"`, float64(total))
	writeSample(w, h.name+"_sum", h.labels, "", float64(h.sum.Load())/1e9)
	writeSample(w, h.name+"_count", h.labels, "", float64(total))
}

// formatValue renders a sample value: integers without a decimal point,
// everything else in shortest-roundtrip form.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
