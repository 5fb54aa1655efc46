package freelist

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestNoValueHeldTwice has goroutines take, hold and return values at
// once: a value is never with two of them, the list keeps what it has
// room for, and a collection does not empty it.
func TestNoValueHeldTwice(t *testing.T) {
	type scratch struct{ holders atomic.Int32 }
	l := New[scratch]()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				v := l.Get()
				if n := v.holders.Add(1); n != 1 {
					t.Errorf("a value is held by %d goroutines at once", n)
					return
				}
				v.holders.Add(-1)
				l.Put(v)
			}
		}()
	}
	wg.Wait()
	if len(l) == 0 || len(l) > cap(l) {
		t.Fatalf("the list keeps %d values, room for %d", len(l), cap(l))
	}
	for len(l) > 1 {
		l.Get()
	}
	v := l.Get()
	l.Put(v)
	runtime.GC()
	if w := l.Get(); w != v {
		t.Fatal("a collection emptied the list")
	}
}
