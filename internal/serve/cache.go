package serve

import (
	"container/list"
	"sync"
)

// shardKey identifies one decoded shard in the registry-wide cache and
// singleflight group: the same shard index in two different containers
// is two distinct keys.
type shardKey struct {
	container string
	shard     int
}

// shardCache is a byte-budgeted cache of decoded shards, shared by every
// container in the registry: least-recently-used eviction behind
// TinyLFU-style frequency admission. The value is the shard's serialized
// FASTQ text, so accounting is exact: the cache's resident bytes never
// exceed the budget — entries are evicted from the cold end before an
// insert, and a value larger than the whole budget is simply not cached.
//
// Every request counts once against its key (get). While a new value
// fits, it is always admitted; when it would push the cache over budget,
// it goes in only if its key has been requested strictly more often than
// every entry it would evict, so a shard read once cannot displace a
// shard read often. Every agingPeriod × max(entries, 16) counted
// requests the counts halve and the zeros are dropped, so the counts
// follow a drifting hot set and the count map stays a small multiple of
// the resident entries.
type shardCache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	ll     *list.List // front = most recently used
	items  map[shardKey]*list.Element
	freq   map[shardKey]uint32 // requests per key, halved every aging
	seen   int                 // requests counted since the last aging
}

// agingPeriod is how many counted requests per resident entry pass
// between two halvings of the counts. A longer period tells a shard
// near the bottom of the hot set from the tail more surely, and forgets
// a hot set that has moved on more slowly; DESIGN.md "Decoded-shard
// cache admission" has the measurements behind 50.
const agingPeriod = 50

type cacheEntry struct {
	key  shardKey
	data []byte
}

func newShardCache(budget int64) *shardCache {
	return &shardCache{
		budget: budget,
		ll:     list.New(),
		items:  make(map[shardKey]*list.Element),
		freq:   make(map[shardKey]uint32),
	}
}

// get counts one request for key and returns its cached value, promoting
// it to most recent.
func (c *shardCache) get(key shardKey) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.freq[key]++
	if c.seen++; c.seen >= agingPeriod*max(c.ll.Len(), 16) {
		c.seen = 0
		for k, n := range c.freq {
			if n >>= 1; n == 0 {
				delete(c.freq, k)
			} else {
				c.freq[k] = n
			}
		}
	}
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).data, true
}

// peek returns the cached value for key without counting a request or
// promoting the entry.
func (c *shardCache) peek(key shardKey) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		return el.Value.(*cacheEntry).data, true
	}
	return nil, false
}

// add inserts key -> data, evicting least-recently-used entries until
// the budget holds. It returns the number of entries evicted, the bytes
// they held (the eviction byte-flow metric), and whether the admission
// rule turned the value away. Values larger than the budget are not
// cached (evicting everything else for a value that cannot fit would
// only thrash).
func (c *shardCache) add(key shardKey, data []byte) (evicted int, evictedBytes int64, rejected bool) {
	size := int64(len(data))
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		// Re-insert of a resident key (concurrent decoders racing, or a
		// caller refreshing a shard): the old value must not stay
		// resident — keeping it would serve stale bytes on the next get
		// and leave c.bytes accounting the wrong size. Replace the data,
		// re-account the budget, and evict for any growth; when the new
		// value exceeds the whole budget, drop the entry entirely.
		ent := el.Value.(*cacheEntry)
		if size > c.budget {
			c.ll.Remove(el)
			delete(c.items, key)
			c.bytes -= int64(len(ent.data))
			return 0, 0, false
		}
		c.bytes += size - int64(len(ent.data))
		ent.data = data
		c.ll.MoveToFront(el)
		evicted, evictedBytes = c.evictOver()
		return evicted, evictedBytes, false
	}
	if size > c.budget {
		return 0, 0, false
	}
	// Admission: walk the victims the insert would evict, coldest first;
	// one requested at least as often as the newcomer keeps its place.
	// The walk ends before the list does: size <= budget, so evicting
	// every resident entry would make room.
	n := c.freq[key]
	for el, need := c.ll.Back(), c.bytes+size-c.budget; need > 0; el = el.Prev() {
		ent := el.Value.(*cacheEntry)
		if c.freq[ent.key] >= n {
			return 0, 0, true
		}
		need -= int64(len(ent.data))
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, data: data})
	c.bytes += size
	evicted, evictedBytes = c.evictOver()
	return evicted, evictedBytes, false
}

// evictOver drops least-recently-used entries until resident bytes fit
// the budget. The entry just touched sits at the front, so it is only
// reachable when it is the sole entry — and then it fits by the add()
// size check. Callers hold c.mu.
func (c *shardCache) evictOver() (evicted int, evictedBytes int64) {
	for c.bytes > c.budget {
		back := c.ll.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.items, ent.key)
		c.bytes -= int64(len(ent.data))
		evicted++
		evictedBytes += int64(len(ent.data))
	}
	return evicted, evictedBytes
}

// usage reports resident bytes and entry count.
func (c *shardCache) usage() (bytes int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes, c.ll.Len()
}

// containerUsage is one container's share of the shared cache.
type containerUsage struct {
	bytes   int64
	entries int
}

// usageByContainer attributes the resident bytes to their containers —
// the breakdown that makes a hot container distinguishable from a cold
// one in /stats. O(entries) under the lock, called only at snapshot
// time, never on the request path.
func (c *shardCache) usageByContainer() map[string]containerUsage {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]containerUsage)
	for el := c.ll.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*cacheEntry)
		u := out[ent.key.container]
		u.bytes += int64(len(ent.data))
		u.entries++
		out[ent.key.container] = u
	}
	return out
}
