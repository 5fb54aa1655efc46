// Command benchmark is the repository's benchmark: it generates four
// workloads from -seed, takes each from FASTQ to a container and back and
// serves the container's shards over HTTP, checks every output, and reports
// the end-to-end metrics (tracing off) and the per-layer metrics (traced
// pass) named in BENCHMARK.json. See README.md.
//
//	benchmark -workload short_plain -seed 1 -seconds 26 -trace 0
//	benchmark                       # every workload, both passes
//	benchmark -agree a.json b.json  # do two results agree within the bounds?
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workloadName := fs.String("workload", "all", "workload to run: short_plain, long_plain, paired_gz_reorder, serve_zipf or all")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 26, "how long each pass measures, after set-up")
	trace := fs.String("trace", "both", "0: end-to-end metrics, tracing off; 1: per-layer metrics, traced; both")
	out := fs.String("out", ".bench_build/results", "directory for result files, traces and sort spills")
	agree := fs.Bool("agree", false, "compare two result files (or directories of them) given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *agree {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -agree takes two result files or directories")
			return 2
		}
		diffs, err := agreePaths(fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		for _, d := range diffs {
			fmt.Println(d)
		}
		if len(diffs) > 0 {
			return 1
		}
		fmt.Println("results agree")
		return 0
	}

	var todo []workload
	if *workloadName == "all" {
		todo = workloads
	} else if w, ok := findWorkload(*workloadName); ok {
		todo = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workloadName)
		return 2
	}
	if *trace != "0" && *trace != "1" && *trace != "both" {
		fmt.Fprintf(os.Stderr, "benchmark: -trace %q: want 0, 1 or both\n", *trace)
		return 2
	}
	cfg := config{
		seed: *seed, seconds: *seconds, outDir: *out, scale: 1,
		quantum: 300 * time.Millisecond, minRounds: 5, setupReps: 5,
	}

	code := 0
	for _, w := range todo {
		var res *result
		if *trace != "1" {
			r, err := runEndToEnd(cfg, w)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			res = r
		}
		if *trace != "0" {
			r, err := runTraced(cfg, w)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			if res == nil {
				res = r
			} else {
				res.merge(r)
			}
		}
		if err := res.write(cfg.outDir); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		res.table(os.Stderr)
		line, err := res.line()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Printf("%s\n", line)
		if !res.Correct {
			code = 1
		}
	}
	return code
}
