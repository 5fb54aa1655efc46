// Command sagebench regenerates every table and figure of the SAGe
// paper's evaluation (§8) on the synthetic RS1–RS5 read sets, plus the
// modeled in-storage dispatch, query push-down and reorder-size
// experiments. Measured wall-clock figures come from benchmark/run.sh.
//
// Usage:
//
//	sagebench [-scale 0.35] [-experiment fig13] [-list] [-json BENCH_7.json]
//
// With no -experiment it runs the full suite in order. Modeled figures
// take software preparation rates from the paper's measured component
// ratios (DESIGN.md, "Calibration"). The -json flag additionally writes
// every experiment's machine-readable metrics (speedups, ratios, modeled
// times) as one JSON object keyed by experiment ID.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"sage/internal/bench"
)

// writeJSON collects each table's Metrics map into one document:
//
//	{"instorage": {"speedup_8unit": ..., ...}, "query": {...}, ...}
//
// Experiments without metrics are omitted rather than serialized as
// empty objects, so the file only states what was measured.
func writeJSON(path string, tables []*bench.Table) error {
	doc := make(map[string]map[string]float64)
	for _, tb := range tables {
		if len(tb.Metrics) > 0 {
			doc[tb.ID] = tb.Metrics
		}
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	scale := flag.Float64("scale", 0.35, "dataset scale (1.0 ≈ a few MB of FASTQ per read set)")
	experiment := flag.String("experiment", "", "run a single experiment (e.g. fig13, tab2); empty = all")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	jsonPath := flag.String("json", "", "write machine-readable metrics (experiment -> figures) to this file")
	flag.Parse()

	s := bench.NewSuite(*scale)
	if *list {
		for _, id := range s.IDs() {
			fmt.Println(id)
		}
		return
	}
	fmt.Printf("SAGe evaluation suite (scale=%.2f)\n", *scale)
	start := time.Now()
	var tables []*bench.Table
	if *experiment != "" {
		tb, err := s.Run(*experiment)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sagebench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(tb.Render())
		tables = []*bench.Table{tb}
	} else {
		var err error
		tables, err = s.All()
		if err != nil {
			fmt.Fprintf(os.Stderr, "sagebench: %v\n", err)
			os.Exit(1)
		}
		for _, tb := range tables {
			fmt.Println(tb.Render())
		}
		fmt.Printf("completed %d experiments in %v\n", len(tables), time.Since(start).Round(time.Millisecond))
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, tables); err != nil {
			fmt.Fprintf(os.Stderr, "sagebench: writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("metrics written to %s\n", *jsonPath)
	}
}
