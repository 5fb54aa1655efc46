package shard

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sage/internal/fastq"
)

// TestStreamProperty drives the ordered pool with work of random
// length, so jobs finish out of order, in both its forms: stream over a
// shard list, and drain claiming from a next whose length the pool
// cannot know up front. Emit runs one call at a time and sees claim
// order, at most workers+1 jobs are claimed and not yet emitted, a
// next, work or emit error at job k is what the pool returns and
// nothing from k on is emitted, next never runs concurrently and is not
// called again once it returned io.EOF or an error, and no goroutine
// outlives the call. CI also runs it under -race -count=20.
func TestStreamProperty(t *testing.T) {
	errs := map[string]error{
		"next":   errors.New("next failed"),
		"decode": errors.New("decode failed"),
		"emit":   errors.New("emit failed"),
	}
	for _, form := range []string{"list", "source"} {
		for _, workers := range []int{1, 2, 3, 8} {
			for _, n := range []int{0, 1, workers - 1, 50} {
				for _, fault := range []string{"none", "next", "decode", "emit"} {
					if fault != "none" && n == 0 || fault == "next" && form == "list" {
						continue
					}
					name := fmt.Sprintf("workers=%d/n=%d/fault=%s", workers, n, fault)
					if form == "source" {
						name = "source/" + name
					}
					t.Run(name, func(t *testing.T) {
						checkPool(t, form, workers, n, fault, errs[fault])
					})
				}
			}
		}
	}
}

func checkPool(t *testing.T, form string, workers, n int, fault string, errFault error) {
	start := runtime.NumGoroutine()
	list := make([]int, n)
	for i := range list {
		list[i] = 3*i + 1 // job ids that are not claim positions
	}
	k := n / 2 // the failing position
	var inNext, inEmit, resident, peak atomic.Int32
	claim := func() {
		r := resident.Add(1)
		for p := peak.Load(); r > p && !peak.CompareAndSwap(p, r); p = peak.Load() {
		}
	}
	decode := func(job int) (int, error) {
		if form == "list" {
			claim()
		}
		time.Sleep(time.Duration(rand.N(40)) * time.Microsecond)
		if fault == "decode" && job == list[k] {
			return 0, errFault
		}
		return job, nil
	}
	var emitted []int
	emit := func(job int) error {
		if c := inEmit.Add(1); c != 1 {
			t.Errorf("%d emits run at once", c)
		}
		defer inEmit.Add(-1)
		defer resident.Add(-1)
		if fault == "emit" && job == list[k] {
			return errFault
		}
		emitted = append(emitted, job)
		return nil
	}

	var err error
	if form == "list" {
		err = stream(list, workers, decode, emit)
	} else {
		claimed, ended := 0, false
		err = drain(func() (int, error) {
			if c := inNext.Add(1); c != 1 {
				t.Errorf("%d calls of next run at once", c)
			}
			defer inNext.Add(-1)
			if ended {
				t.Errorf("next called again after it returned io.EOF or an error")
			}
			// Sleep inside next, so a concurrent call would overlap it.
			time.Sleep(time.Duration(rand.N(10)) * time.Microsecond)
			switch {
			case fault == "next" && claimed == k:
				ended = true
				return 0, errFault
			case claimed == n:
				ended = true
				return 0, io.EOF
			}
			claim()
			claimed++
			return list[claimed-1], nil
		}, workers, decode, emit)
	}

	if fault == "none" && err != nil {
		t.Fatal(err)
	}
	if fault != "none" && !errors.Is(err, errFault) {
		t.Fatalf("err = %v, want the %s error", err, fault)
	}
	want := list
	if fault != "none" {
		want = list[:k]
		if len(emitted) > k {
			t.Fatalf("emitted %d jobs past a fault at position %d", len(emitted)-k, k)
		}
	}
	for i, s := range emitted {
		if s != want[i] {
			t.Fatalf("emit %d got job %d, want %d (claim order)", i, s, want[i])
		}
	}
	if fault == "none" && len(emitted) != n {
		t.Fatalf("emitted %d of %d jobs", len(emitted), n)
	}
	if p := peak.Load(); p > int32(workers)+1 {
		t.Errorf("%d jobs claimed and not yet emitted at once, bound is %d", p, workers+1)
	}
	waitGoroutines(t, start)
}

// waitGoroutines fails t unless the goroutine count falls back to start:
// a worker's goroutine may still be returning after its WaitGroup count
// dropped.
func waitGoroutines(t *testing.T, start int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > start; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlived the pool", runtime.NumGoroutine()-start)
		}
		time.Sleep(time.Millisecond)
	}
}

// faultySource replays batches and fails at batch failAt, if >= 0.
type faultySource struct {
	batches []fastq.Batch
	failAt  int
	err     error
}

func (s *faultySource) Next() (fastq.Batch, error) {
	switch {
	case s.failAt == 0:
		return fastq.Batch{}, s.err
	case len(s.batches) == 0:
		return fastq.Batch{}, io.EOF
	}
	b := s.batches[0]
	s.batches, s.failAt = s.batches[1:], s.failAt-1
	return b, nil
}

// TestCompressPipelineFaults: a source that fails at batch k, and a
// batch the codec rejects (a record with fewer scores than bases), each
// end CompressPipeline with its error, nothing written to w and no
// goroutine left running, at any worker count.
func TestCompressPipelineFaults(t *testing.T) {
	rs, ref := testSet(t, 400)
	errSource := errors.New("source failed")
	for _, workers := range []int{1, 2, 8} {
		for _, fault := range []string{"source", "codec"} {
			t.Run(fmt.Sprintf("workers=%d/fault=%s", workers, fault), func(t *testing.T) {
				start := runtime.NumGoroutine()
				batches := rs.Batches(25) // 16 batches
				src := &faultySource{batches: batches, failAt: -1, err: errSource}
				want := "shard: reading batch: source failed"
				if fault == "source" {
					src.failAt = 9
				} else {
					bad := slices.Clone(batches[9].Records)
					bad[3].Qual = bad[3].Qual[:len(bad[3].Qual)-1]
					batches[9].Records = bad
					want = "shard: compressing shard 9: "
				}
				opt := DefaultOptions(ref)
				opt.Workers = workers
				var w bytes.Buffer
				_, err := CompressPipeline(src, &w, opt)
				if err == nil || !strings.HasPrefix(err.Error(), want) {
					t.Fatalf("err = %v, want one starting %q", err, want)
				}
				if fault == "source" && !errors.Is(err, errSource) {
					t.Fatalf("err = %v does not wrap the source's error", err)
				}
				if w.Len() != 0 {
					t.Fatalf("a failed compress wrote %d bytes", w.Len())
				}
				waitGoroutines(t, start)
			})
		}
	}
}
