package serve

import (
	"bytes"
	"container/list"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func val(n int) []byte { return bytes.Repeat([]byte{byte(n)}, n) }

// key builds a cache key in a fixed container; ckey builds one in a
// named container, for the cross-container isolation cases.
func key(n int) shardKey            { return shardKey{container: "c", shard: n} }
func ckey(c string, n int) shardKey { return shardKey{container: c, shard: n} }

func TestLRUEvictionOrder(t *testing.T) {
	c := newShardCache(100)
	for k := 1; k <= 5; k++ {
		c.add(key(k), val(20)) // fills the budget exactly
	}
	// A 50-byte insert read more often than every victim must evict the
	// three coldest entries (1, 2, 3).
	c.get(key(6))
	if ev, evb, rej := c.add(key(6), val(50)); ev != 3 || evb != 60 || rej {
		t.Fatalf("add(6, 50B) evicted %d entries / %d bytes, want 3 / 60", ev, evb)
	}
	for _, k := range []int{1, 2, 3} {
		if _, ok := c.get(key(k)); ok {
			t.Fatalf("cold entry %d survived", k)
		}
	}
	for _, k := range []int{4, 5, 6} {
		if _, ok := c.get(key(k)); !ok {
			t.Fatalf("warm entry %d was evicted", k)
		}
	}
	if b, n := c.usage(); b != 90 || n != 3 {
		t.Fatalf("usage = %d bytes / %d entries, want 90 / 3", b, n)
	}
}

func TestLRUEvictsColdEntryOnly(t *testing.T) {
	c := newShardCache(100)
	c.add(key(1), val(40))
	c.add(key(2), val(40))
	if _, ok := c.get(key(1)); !ok {
		t.Fatal("entry 1 missing")
	}
	ev, _, _ := c.add(key(3), val(20)) // 40+40+20 = 100: fits without eviction
	if ev != 0 {
		t.Fatalf("add(3, 20B) evicted %d entries", ev)
	}
	c.get(key(4))
	ev, evb, _ := c.add(key(4), val(40)) // needs 40: evicts 2 (coldest; 1 was touched)
	if ev != 1 || evb != 40 {
		t.Fatalf("add(4, 40B) evicted %d entries / %d bytes, want 1 / 40", ev, evb)
	}
	if _, ok := c.get(key(2)); ok {
		t.Fatal("cold entry 2 survived eviction")
	}
	if _, ok := c.get(key(1)); !ok {
		t.Fatal("recently used entry 1 was evicted")
	}
}

func TestLRUOversizedValueNotCached(t *testing.T) {
	c := newShardCache(50)
	c.add(key(1), val(30))
	if ev, _, _ := c.add(key(2), val(51)); ev != 0 {
		t.Fatalf("oversized add evicted %d entries", ev)
	}
	if _, ok := c.get(key(2)); ok {
		t.Fatal("oversized value was cached")
	}
	if _, ok := c.get(key(1)); !ok {
		t.Fatal("oversized add destroyed resident entry")
	}
	if b, n := c.usage(); b != 30 || n != 1 {
		t.Fatalf("usage = %d bytes / %d entries", b, n)
	}
}

func TestLRUDuplicateAdd(t *testing.T) {
	c := newShardCache(100)
	c.add(key(1), val(40))
	c.add(key(1), val(40)) // racing decoders insert the same shard twice
	if b, n := c.usage(); b != 40 || n != 1 {
		t.Fatalf("duplicate add: usage = %d bytes / %d entries", b, n)
	}
}

// TestLRUContainerKeysDistinct pins the registry property: the same
// shard index in two containers is two independent cache entries.
func TestLRUContainerKeysDistinct(t *testing.T) {
	c := newShardCache(100)
	c.add(ckey("a", 0), []byte("aaaa"))
	c.add(ckey("b", 0), []byte("bb"))
	got, ok := c.get(ckey("a", 0))
	if !ok || string(got) != "aaaa" {
		t.Fatalf("container a shard 0 = %q, %v", got, ok)
	}
	got, ok = c.get(ckey("b", 0))
	if !ok || string(got) != "bb" {
		t.Fatalf("container b shard 0 = %q, %v", got, ok)
	}
	if b, n := c.usage(); b != 6 || n != 2 {
		t.Fatalf("usage = %d bytes / %d entries, want 6 / 2", b, n)
	}
}

// TestLRUBudgetInvariant hammers the cache from many goroutines with
// random keys and sizes — gets that count and age, peeks, admissions and
// rejections; the byte budget must hold at every sample.
func TestLRUBudgetInvariant(t *testing.T) {
	const budget = 1000
	c := newShardCache(budget)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				switch rng.Intn(4) {
				case 0:
					c.get(key(rng.Intn(50)))
				case 1:
					c.peek(key(rng.Intn(50)))
				default:
					c.add(key(rng.Intn(50)), val(rng.Intn(300)))
				}
				if b, _ := c.usage(); b > budget {
					t.Errorf("cache holds %d bytes, budget %d", b, budget)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

func TestFlightGroupDedup(t *testing.T) {
	var g flightGroup
	var runs atomic.Int32
	block := make(chan struct{})
	entered := make(chan struct{})
	fn := func() (*decoded, error) {
		if runs.Add(1) == 1 {
			close(entered)
			<-block
		}
		return &decoded{data: []byte("payload")}, nil
	}

	var wg sync.WaitGroup
	results := make([]*decoded, 16)
	shares := make([]bool, 16)
	wg.Add(1)
	go func() { // leader: parks inside fn until released
		defer wg.Done()
		v, err, shared := g.do(key(7), fn)
		if err != nil {
			t.Errorf("leader: %v", err)
		}
		results[0], shares[0] = v, shared
	}()
	<-entered
	for n := 1; n < 16; n++ {
		wg.Add(1)
		go func(n int) { // joiners arrive while the leader is in flight
			defer wg.Done()
			v, err, shared := g.do(key(7), fn)
			if err != nil {
				t.Errorf("joiner %d: %v", n, err)
			}
			results[n], shares[n] = v, shared
		}(n)
	}
	// Give the joiners time to park on the in-flight call before the
	// leader is released; a straggler that misses the flight would run
	// fn itself and be caught by the exactly-once assertion below.
	time.Sleep(50 * time.Millisecond)
	close(block)
	wg.Wait()

	if n := runs.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	for n, v := range results {
		if v == nil || string(v.data) != "payload" {
			t.Fatalf("caller %d got %+v", n, v)
		}
		if n > 0 && !shares[n] {
			t.Fatalf("joiner %d did not share the leader's flight", n)
		}
	}
}

// TestFlightGroupContainerKeysDistinct pins that two flights for the
// same shard index in different containers run independently: neither
// joins the other.
func TestFlightGroupContainerKeysDistinct(t *testing.T) {
	var g flightGroup
	aEntered := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err, shared := g.do(ckey("a", 0), func() (*decoded, error) {
			close(aEntered)
			<-release
			return &decoded{data: []byte("a")}, nil
		})
		if err != nil || shared {
			t.Errorf("container a flight: err=%v shared=%v", err, shared)
		}
	}()
	<-aEntered
	// While a's flight is parked, b's flight for the same shard index
	// must lead its own call, not join a's.
	v, err, shared := g.do(ckey("b", 0), func() (*decoded, error) {
		return &decoded{data: []byte("b")}, nil
	})
	if err != nil || shared || string(v.data) != "b" {
		t.Fatalf("container b flight: v=%+v err=%v shared=%v", v, err, shared)
	}
	close(release)
	wg.Wait()
}

// TestLRUReinsertReplacesValue pins the re-insert contract: adding a
// resident key again must replace the bytes and re-account the budget —
// the old behavior kept the stale value, so a later get served bytes
// that no longer matched what the caller had inserted.
func TestLRUReinsertReplacesValue(t *testing.T) {
	c := newShardCache(100)
	c.add(key(1), []byte("old-value"))
	c.add(key(1), []byte("new"))
	got, ok := c.get(key(1))
	if !ok || string(got) != "new" {
		t.Fatalf("after re-insert, get = %q, %v; want the new value", got, ok)
	}
	if b, n := c.usage(); b != 3 || n != 1 {
		t.Fatalf("after shrinking re-insert, usage = %d bytes / %d entries, want 3 / 1", b, n)
	}

	// A growing re-insert re-accounts upward and evicts colder entries
	// to stay inside the budget.
	c.add(key(2), val(40))
	c.add(key(3), val(40))
	if ev, evb, _ := c.add(key(2), val(90)); ev != 2 || evb != 43 {
		t.Fatalf("growing re-insert evicted %d entries / %d bytes, want 2 / 43 (key 1 and key 3)", ev, evb)
	}
	got, ok = c.get(key(2))
	if !ok || len(got) != 90 {
		t.Fatalf("grown entry = %d bytes, %v; want 90", len(got), ok)
	}
	if b, n := c.usage(); b != 90 || n != 1 {
		t.Fatalf("after growing re-insert, usage = %d bytes / %d entries, want 90 / 1", b, n)
	}

	// Re-inserting a value larger than the whole budget cannot keep the
	// stale resident copy either: the entry is dropped outright.
	if ev, _, _ := c.add(key(2), val(101)); ev != 0 {
		t.Fatalf("oversized re-insert evicted %d entries", ev)
	}
	if _, ok := c.get(key(2)); ok {
		t.Fatal("oversized re-insert left a stale value resident")
	}
	if b, n := c.usage(); b != 0 || n != 0 {
		t.Fatalf("after oversized re-insert, usage = %d bytes / %d entries, want 0 / 0", b, n)
	}
}

// lruOracle is the pure LRU the cache was before frequency admission:
// every miss is inserted and evicts from the cold end. Entries are
// counted, not sized; the admission tests use equal-sized values.
type lruOracle struct {
	capacity int
	ll       *list.List // front = most recently used
	items    map[shardKey]*list.Element
}

func newLRUOracle(capacity int) *lruOracle {
	return &lruOracle{capacity: capacity, ll: list.New(), items: make(map[shardKey]*list.Element)}
}

// access is one request: a hit promotes, a miss inserts.
func (o *lruOracle) access(k shardKey) (hit bool) {
	if el, ok := o.items[k]; ok {
		o.ll.MoveToFront(el)
		return true
	}
	o.items[k] = o.ll.PushFront(k)
	if o.ll.Len() > o.capacity {
		back := o.ll.Back()
		o.ll.Remove(back)
		delete(o.items, back.Value.(shardKey))
	}
	return false
}

// access is one request as decodedShard makes it: a counted get and, on
// a miss, an add of the size-byte decoded value.
func access(c *shardCache, k shardKey, size int) (hit bool) {
	if _, ok := c.get(k); ok {
		return true
	}
	c.add(k, val(size))
	return false
}

// TestAdmissionTieRejected: a newcomer requested exactly as often as the
// entry it would evict is served but not cached, and the resident
// entries stay as they were.
func TestAdmissionTieRejected(t *testing.T) {
	c := newShardCache(100)
	for k := 1; k <= 5; k++ {
		c.get(key(k))
		c.add(key(k), val(20))
	}
	c.get(key(6))
	if ev, evb, rej := c.add(key(6), val(20)); ev != 0 || evb != 0 || !rej {
		t.Fatalf("equal-count add evicted %d entries / %d bytes, rejected = %v; want 0 / 0 / true", ev, evb, rej)
	}
	if _, ok := c.peek(key(6)); ok {
		t.Fatal("rejected value was cached")
	}
	for k := 1; k <= 5; k++ {
		if _, ok := c.peek(key(k)); !ok {
			t.Fatalf("resident entry %d was evicted by a rejected insert", k)
		}
	}
	if b, n := c.usage(); b != 100 || n != 5 {
		t.Fatalf("usage = %d bytes / %d entries, want 100 / 5", b, n)
	}
}

// TestAdmissionMultiVictim: a variable-size insert that needs several
// victims is rejected whole when any one of them is read at least as
// often — no victim is evicted for an insert that does not happen — and
// admitted, evicting them all, once it is read more often than each.
func TestAdmissionMultiVictim(t *testing.T) {
	c := newShardCache(100)
	reads := map[int]int{1: 1, 2: 3, 3: 1} // coldest first: 1, 2, 3
	for _, k := range []int{1, 2, 3} {
		for r := 0; r < reads[k]; r++ {
			c.get(key(k))
		}
	}
	c.add(key(1), val(50))
	c.add(key(2), val(30))
	c.add(key(3), val(20))
	// 60 bytes need victims 1 (50 B, 1 read) and 2 (30 B, 3 reads).
	c.get(key(4))
	c.get(key(4))
	if ev, _, rej := c.add(key(4), val(60)); ev != 0 || !rej {
		t.Fatalf("add past a hotter second victim evicted %d, rejected = %v; want 0 / true", ev, rej)
	}
	if b, n := c.usage(); b != 100 || n != 3 {
		t.Fatalf("after the rejection usage = %d bytes / %d entries, want 100 / 3", b, n)
	}
	c.get(key(4))
	c.get(key(4)) // 4 reads: more than either victim
	if ev, evb, rej := c.add(key(4), val(60)); ev != 2 || evb != 80 || rej {
		t.Fatalf("admitted add evicted %d entries / %d bytes, rejected = %v; want 2 / 80 / false", ev, evb, rej)
	}
	for k, want := range map[int]bool{1: false, 2: false, 3: true, 4: true} {
		if _, ok := c.peek(key(k)); ok != want {
			t.Fatalf("entry %d resident = %v, want %v", k, ok, want)
		}
	}
	if b, n := c.usage(); b != 80 || n != 2 {
		t.Fatalf("usage = %d bytes / %d entries, want 80 / 2", b, n)
	}
}

// TestAdmissionScanResistance: a one-pass sweep four times the cache's
// size — what /query does over the surviving shards — leaves a hot set
// resident, where the pure LRU oracle loses all of it.
func TestAdmissionScanResistance(t *testing.T) {
	const entries, size = 20, 10
	c := newShardCache(entries * size)
	o := newLRUOracle(entries)
	for r := 0; r < 3; r++ {
		for k := 0; k < entries/2; k++ {
			access(c, key(k), size)
			o.access(key(k))
		}
	}
	for k := 1000; k < 1000+4*entries; k++ {
		access(c, key(k), size)
		o.access(key(k))
	}
	for k := 0; k < entries/2; k++ {
		if _, ok := c.peek(key(k)); !ok {
			t.Fatalf("hot shard %d was flushed by the sweep", k)
		}
		if _, ok := o.items[key(k)]; ok {
			t.Fatalf("the LRU oracle kept hot shard %d; the sweep is too short to test anything", k)
		}
	}
}

// TestAdmissionZipfHitRatio: on the benchmark's request shape — Zipf(1.1)
// over 120 equal shards, a budget of 30 — admission keeps the hot set
// resident and beats the LRU oracle's hit ratio.
func TestAdmissionZipfHitRatio(t *testing.T) {
	const keys, entries, size, requests = 120, 30, 10, 50_000
	c := newShardCache(entries * size)
	o := newLRUOracle(entries)
	z := rand.NewZipf(rand.New(rand.NewSource(2)), 1.1, 1, keys-1)
	var hits, oracleHits int
	for i := 0; i < requests; i++ {
		k := key(int(z.Uint64()))
		if access(c, k, size) {
			hits++
		}
		if o.access(k) {
			oracleHits++
		}
	}
	got, oracle := float64(hits)/requests, float64(oracleHits)/requests
	t.Logf("hit ratio: admission %.3f, LRU oracle %.3f", got, oracle)
	if got < 0.75 || oracle > 0.72 {
		t.Fatalf("hit ratio %.3f (want >= 0.75), LRU oracle %.3f (want <= 0.72)", got, oracle)
	}
}

// TestAdmissionCountsBounded: aging keeps the count map a small multiple
// of the resident entries however many distinct keys are requested.
func TestAdmissionCountsBounded(t *testing.T) {
	const entries, size = 100, 10
	c := newShardCache(entries * size)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		access(c, key(rng.Intn(10_000)), size)
	}
	_, n := c.usage()
	if counted, most := len(c.freq), (agingPeriod+1)*n; n != entries || counted > most {
		t.Fatalf("%d counters for %d resident entries, want a full cache and at most %d", counted, n, most)
	}
}
