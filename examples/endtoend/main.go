// Endtoend: reproduce the paper's core result on one read set — when
// genome analysis is accelerated (GEM), data preparation becomes the
// bottleneck, and SAGe removes it (Fig. 1 + one column of Fig. 13).
package main

import (
	"fmt"
	"log"

	"sage/internal/bench"
)

func main() {
	// Generate + measure the RS2-class read set (deep human short reads).
	sets := bench.StandardDatasets(0.3)
	var gen *bench.Generated
	for _, d := range sets {
		if d.Label == "RS2" {
			g, err := d.Generate()
			if err != nil {
				log.Fatal(err)
			}
			gen = g
		}
	}
	fmt.Printf("dataset %s: %d reads, %.1f MB FASTQ\n",
		gen.Label, len(gen.Reads.Records), float64(len(gen.FASTQ))/1e6)

	m, err := bench.Measure(gen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compression ratios (DNA): pigz %.1fx, Spring-like %.1fx, SAGe %.1fx\n",
		m.Pigz.DNARatio, m.Spring.DNARatio, m.SAGe.DNARatio)

	plat := bench.DefaultPlatform()
	fmt.Println("\nend-to-end pipeline with the GEM read-mapping accelerator (PCIe SSD):")
	fmt.Printf("%-12s %14s %14s %12s\n", "prep config", "total", "bottleneck", "vs (N)Spr")
	base, err := bench.EndToEnd(bench.CfgSpring, m, plat)
	if err != nil {
		log.Fatal(err)
	}
	for _, cfg := range bench.AllConfigs() {
		res, err := bench.EndToEnd(cfg, m, plat)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %14v %14s %11.2fx\n",
			cfg, res.Total.Round(1e6), res.BottleneckName(),
			base.Total.Seconds()/res.Total.Seconds())
	}
	fmt.Println("\nSAGe matches the zero-time-decompression ideal: preparation is no longer the slowest stage.")
}
