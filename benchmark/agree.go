package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
)

// agreePaths compares two result files, or every result file of one
// directory with its namesake in the other, and lists the disagreements.
func agreePaths(a, b string) ([]string, error) {
	ia, err := os.Stat(a)
	if err != nil {
		return nil, err
	}
	if !ia.IsDir() {
		return agreeFiles(a, b)
	}
	names, err := filepath.Glob(filepath.Join(a, "*.json"))
	if err != nil {
		return nil, err
	}
	var diffs []string
	compared := 0
	for _, fa := range names {
		if strings.HasSuffix(fa, ".trace.json") {
			continue
		}
		d, err := agreeFiles(fa, filepath.Join(b, filepath.Base(fa)))
		if err != nil {
			return nil, err
		}
		diffs = append(diffs, d...)
		compared++
	}
	if compared == 0 {
		return nil, fmt.Errorf("%s holds no result files", a)
	}
	return diffs, nil
}

func agreeFiles(a, b string) ([]string, error) {
	ra, err := readResult(a)
	if err != nil {
		return nil, err
	}
	rb, err := readResult(b)
	if err != nil {
		return nil, err
	}
	return agree(ra, rb), nil
}

// agree lists where two results of one workload disagree: a different input
// (seed, sizes, digests), any failed operation, a ratio that does not repeat
// exactly, or an end-to-end metric further apart than its own bound.
func agree(a, b *result) []string {
	var diffs []string
	diff := func(format string, args ...any) {
		diffs = append(diffs, a.Meta.Workload+": "+fmt.Sprintf(format, args...))
	}
	ma, mb := a.Meta, b.Meta
	if ma.Workload != mb.Workload || ma.Seed != mb.Seed || ma.Scale != mb.Scale {
		diff("different runs: %s seed %d scale %g vs %s seed %d scale %g",
			ma.Workload, ma.Seed, ma.Scale, mb.Workload, mb.Seed, mb.Scale)
		return diffs
	}
	if !reflect.DeepEqual(ma.InputSHA256, mb.InputSHA256) || ma.Records != mb.Records || ma.PlainBytes != mb.PlainBytes {
		diff("the two runs did not see the same input")
	}
	if ma.ContainerSHA256 != mb.ContainerSHA256 {
		diff("the two runs wrote different containers")
	}
	if a.Failed != 0 || b.Failed != 0 {
		diff("failed operations: %d of %d vs %d of %d", a.Failed, a.Attempted, b.Failed, b.Attempted)
	}
	for _, d := range endToEnd {
		va, oka := a.EndToEnd[d.Name]
		vb, okb := b.EndToEnd[d.Name]
		switch {
		case !oka || !okb:
			diff("%s is missing from a result", d.Name)
		case d.Name == "ratio":
			if va.Value != vb.Value {
				diff("ratio %v vs %v: must repeat exactly", va.Value, vb.Value)
			}
		default:
			if rel := math.Abs(va.Value-vb.Value) / math.Min(va.Value, vb.Value); !(rel <= d.Bound) {
				diff("%s %.4f vs %.4f %s: %.1f%% apart, bound %.1f%%", d.Name, va.Value, vb.Value, d.Unit, 100*rel, 100*d.Bound)
			}
		}
	}
	return diffs
}
