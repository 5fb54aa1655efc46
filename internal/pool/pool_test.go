package pool

import (
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestDrainProperty drives Drain with work of random length, so jobs
// finish out of order, claiming from a next whose length the pool
// cannot know up front: emit runs one call at a time and sees claim
// order, at most workers+1 jobs are claimed and not yet emitted, a
// next, work or emit error at job k is what Drain returns and nothing
// from k on is emitted, next never runs concurrently and is not called
// again once it returned io.EOF or an error, and no goroutine outlives
// the call. CI also runs it under -race -count=20.
func TestDrainProperty(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, workers - 1, 50} {
			for _, fault := range []string{"none", "next", "work", "emit"} {
				if fault != "none" && n == 0 {
					continue
				}
				t.Run(fmt.Sprintf("workers=%d/n=%d/fault=%s", workers, n, fault), func(t *testing.T) {
					checkDrain(t, workers, n, fault)
				})
			}
		}
	}
}

func checkDrain(t *testing.T, workers, n int, fault string) {
	start := runtime.NumGoroutine()
	errFault := errors.New(fault + " failed")
	k := n / 2 // the failing position
	// Job ids are not claim positions, so emit order is checked on ids.
	job := func(i int) int { return 3*i + 1 }
	var inNext, inEmit, resident, peak atomic.Int32
	claimed, ended := 0, false
	next := func() (int, error) {
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
		r := resident.Add(1)
		for p := peak.Load(); r > p && !peak.CompareAndSwap(p, r); p = peak.Load() {
		}
		claimed++
		return job(claimed - 1), nil
	}
	work := func(j int) (int, error) {
		time.Sleep(time.Duration(rand.N(40)) * time.Microsecond)
		if fault == "work" && j == job(k) {
			return 0, errFault
		}
		return j, nil
	}
	var emitted []int
	emit := func(j int) error {
		if c := inEmit.Add(1); c != 1 {
			t.Errorf("%d emits run at once", c)
		}
		defer inEmit.Add(-1)
		defer resident.Add(-1)
		if fault == "emit" && j == job(k) {
			return errFault
		}
		emitted = append(emitted, j)
		return nil
	}

	err := Drain(next, workers, work, emit)
	if fault == "none" && err != nil {
		t.Fatal(err)
	}
	if fault != "none" && !errors.Is(err, errFault) {
		t.Fatalf("err = %v, want the %s error", err, fault)
	}
	want := n
	if fault != "none" {
		want = k
		if len(emitted) > k {
			t.Fatalf("emitted %d jobs past a fault at position %d", len(emitted)-k, k)
		}
	}
	for i, j := range emitted {
		if j != job(i) {
			t.Fatalf("emit %d got job %d, want %d (claim order)", i, j, job(i))
		}
	}
	if fault == "none" && len(emitted) != want {
		t.Fatalf("emitted %d of %d jobs", len(emitted), want)
	}
	if p := peak.Load(); p > int32(workers)+1 {
		t.Errorf("%d jobs claimed and not yet emitted at once, bound is %d", p, workers+1)
	}
	waitGoroutines(t, start)
}

// TestRanges: every index of [0, n) is visited exactly once, in
// consecutive ranges of at most 64, at any worker count, and no
// goroutine outlives the call.
func TestRanges(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8} {
		for _, n := range []int{0, 1, 63, 64, 65, 1000} {
			start := runtime.NumGoroutine()
			seen := make([]atomic.Int32, n)
			Ranges(n, workers, func(lo, hi int) {
				if lo%rangeSize != 0 || hi-lo > rangeSize || hi <= lo {
					t.Errorf("workers=%d n=%d: range [%d, %d)", workers, n, lo, hi)
				}
				for i := lo; i < hi; i++ {
					seen[i].Add(1)
				}
			})
			for i := range seen {
				if c := seen[i].Load(); c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
			waitGoroutines(t, start)
		}
	}
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
