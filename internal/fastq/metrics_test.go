package fastq

import (
	"math"
	"testing"

	"sage/internal/genome"
)

func TestAvgPhred(t *testing.T) {
	avg, ok := AvgPhred([]byte{10, 20, 30, 40}, 0)
	if !ok || avg != 25 {
		t.Fatalf("AvgPhred = %v, %v; want 25, true", avg, ok)
	}
	// The same scores as FASTQ characters.
	if text, ok := AvgPhred([]byte("+5?I"), QualityOffset); !ok || text != avg {
		t.Fatalf("AvgPhred of text = %v, %v; want %v, true", text, ok, avg)
	}
	if _, ok := AvgPhred(nil, 0); ok {
		t.Fatal("unscored record reported an average Phred")
	}
	if _, ok := AvgPhred([]byte{}, QualityOffset); ok {
		t.Fatal("empty record reported an average Phred")
	}
}

func TestExpectedError(t *testing.T) {
	// Q10 = 0.1, Q20 = 0.01: EE = 0.11.
	ee, ok := ExpectedError([]byte{10, 20}, 0)
	if !ok || math.Abs(ee-0.11) > 1e-12 {
		t.Fatalf("ExpectedError = %v, %v; want 0.11, true", ee, ok)
	}
	if text, ok := ExpectedError([]byte("+5"), QualityOffset); !ok || text != ee {
		t.Fatalf("ExpectedError of text = %v, %v; want %v, true", text, ok, ee)
	}
	// Q0 means certain error: one base, EE = 1.
	if ee, ok := ExpectedError([]byte{0}, 0); !ok || ee != 1 {
		t.Fatalf("Q0 ExpectedError = %v, %v; want 1, true", ee, ok)
	}
	if _, ok := ExpectedError(nil, 0); ok {
		t.Fatal("unscored record reported an expected error")
	}
}

func TestGCFraction(t *testing.T) {
	cases := []struct {
		seq  string
		want float64
	}{
		{"GGCC", 1},
		{"AATT", 0},
		{"ACGT", 0.5},
		{"GCNN", 0.5}, // N dilutes like A/T
		{"", 0},
	}
	for _, c := range cases {
		if got := GCFraction(genome.MustFromString(c.seq), genome.BaseC, genome.BaseG); got != c.want {
			t.Fatalf("GCFraction(%q) = %v, want %v", c.seq, got, c.want)
		}
		if got := GCFraction([]byte(c.seq), 'C', 'G'); got != c.want {
			t.Fatalf("GCFraction(%q) over letters = %v, want %v", c.seq, got, c.want)
		}
	}
}
