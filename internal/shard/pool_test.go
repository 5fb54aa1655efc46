package shard

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestStreamProperty drives the ordered decode pool with decodes of
// random length, so shards finish out of order: emit runs one call at a
// time and sees list order, at most workers+1 results are resident, a
// decode or emit error at shard k is what stream returns and nothing
// after k is emitted, and no goroutine outlives the call. CI also runs
// it under -race -count=20.
func TestStreamProperty(t *testing.T) {
	errDecode := errors.New("decode failed")
	errEmit := errors.New("emit failed")
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, workers - 1, 50} {
			for _, fault := range []string{"none", "decode", "emit"} {
				if fault != "none" && n == 0 {
					continue
				}
				t.Run(fmt.Sprintf("workers=%d/n=%d/fault=%s", workers, n, fault), func(t *testing.T) {
					start := runtime.NumGoroutine()
					list := make([]int, n)
					for i := range list {
						list[i] = 3*i + 1 // shard ids that are not list positions
					}
					k := n / 2 // the failing position
					var inEmit, resident, peak atomic.Int32
					var emitted []int
					err := stream(list, workers, func(shard int) (int, error) {
						r := resident.Add(1)
						for p := peak.Load(); r > p && !peak.CompareAndSwap(p, r); p = peak.Load() {
						}
						time.Sleep(time.Duration(rand.N(40)) * time.Microsecond)
						if fault == "decode" && shard == list[k] {
							return 0, errDecode
						}
						return shard, nil
					}, func(shard int) error {
						if c := inEmit.Add(1); c != 1 {
							t.Errorf("%d emits run at once", c)
						}
						defer inEmit.Add(-1)
						defer resident.Add(-1)
						if fault == "emit" && shard == list[k] {
							return errEmit
						}
						emitted = append(emitted, shard)
						return nil
					})

					switch fault {
					case "none":
						if err != nil {
							t.Fatal(err)
						}
					case "decode":
						if !errors.Is(err, errDecode) {
							t.Fatalf("err = %v, want the decode error", err)
						}
					case "emit":
						if !errors.Is(err, errEmit) {
							t.Fatalf("err = %v, want the emit error", err)
						}
					}
					want := list
					if fault != "none" {
						want = list[:k]
						if len(emitted) > k {
							t.Fatalf("emitted %d shards past a fault at position %d", len(emitted)-k, k)
						}
					}
					for i, s := range emitted {
						if s != want[i] {
							t.Fatalf("emit %d got shard %d, want %d (list order)", i, s, want[i])
						}
					}
					if fault == "none" && len(emitted) != n {
						t.Fatalf("emitted %d of %d shards", len(emitted), n)
					}
					if p := peak.Load(); p > int32(workers)+1 {
						t.Errorf("%d results resident at once, bound is %d", p, workers+1)
					}
					// A worker's goroutine may still be returning after its
					// WaitGroup count dropped.
					for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > start; {
						if time.Now().After(deadline) {
							t.Fatalf("%d goroutines outlived stream", runtime.NumGoroutine()-start)
						}
						time.Sleep(time.Millisecond)
					}
				})
			}
		}
	}
}
