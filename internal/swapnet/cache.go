package swapnet

import (
	"sync"
	"sync/atomic"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/lru"
)

// PatternCache memoises the region-derived structures the ATA patterns
// recompute on every invocation: the normalised region, its unit segments
// and the snake restricted to it. Every entry is structural — it depends
// only on the architecture and the region bounds, never on a mapping or a
// want set — and the hybrid compiler's prediction loop evaluates many
// checkpoints over the same few active regions, so the entries see real
// hits. Its counters count these region lookups and nothing else.
//
// Entries are keyed by the architecture's structural fingerprint rather than
// the *Arch pointer, so independently constructed but identical devices
// (common in benchmarks) share them. The cache is safe for concurrent use:
// it is sharded, each shard guarded by a mutex around a size-capped LRU.
// Cached slices are read-only by contract — the patterns only ever read
// them.
type PatternCache struct {
	shards   [pcShardCount]pcShard
	shardCap [pcShardCount]int

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

const (
	pcShardCount = 16
	// DefaultCacheCapacity bounds the total entry count of a PatternCache
	// built with NewPatternCache(0). Entries are one per (arch, region) and
	// small; 4096 comfortably covers a large compilation while keeping the
	// worst-case footprint in the low megabytes.
	DefaultCacheCapacity = 4096
)

type pcShard struct {
	mu  sync.Mutex
	lru lru.List[pcKey, any]
}

// pcKey identifies a cache entry: the architecture's fingerprint and the
// region as the caller passed it.
type pcKey struct {
	fp uint64
	r  arch.Region
}

// regionInfo is a cache entry: everything about a region that depends
// only on the architecture and region bounds, not on the mapping.
type regionInfo struct {
	norm arch.Region
	// units are the region's unit segments (regionUnits of norm); nil for
	// path-encoded regions.
	units [][]int
	// snakeSeg is the architecture snake restricted to the region, and
	// snakeOK whether that restriction is contiguous (snakeATA falls back
	// to the full snake when it is not).
	snakeSeg []int
	snakeOK  bool
}

// NewPatternCache returns a cache bounded to capacity entries (0 or
// negative selects DefaultCacheCapacity). Capacity is distributed
// exactly across the shards — the first capacity%pcShardCount shards
// take the extra entry — rather than rounded down per shard, so a
// 100-entry cache holds 100 entries, not 96. Every shard keeps at
// least one slot: requests below pcShardCount are raised to one entry
// per shard, and Capacity reports the actual total.
func NewPatternCache(capacity int) *PatternCache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	per, extra := capacity/pcShardCount, capacity%pcShardCount
	c := &PatternCache{}
	for i := range c.shardCap {
		c.shardCap[i] = per
		if i < extra {
			c.shardCap[i]++
		}
		if c.shardCap[i] < 1 {
			c.shardCap[i] = 1
		}
	}
	return c
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Hits, Misses, Evictions int64
	Entries                 int
}

// Stats returns the cache counters and current entry count.
func (c *PatternCache) Stats() CacheStats {
	s := CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Entries += sh.lru.Len()
		sh.mu.Unlock()
	}
	return s
}

// Capacity returns the total entry bound actually enforced.
func (c *PatternCache) Capacity() int {
	total := 0
	for _, n := range c.shardCap {
		total += n
	}
	return total
}

func (k pcKey) shard() uint64 {
	h := k.fp
	h ^= uint64(k.r.U0)<<1 ^ uint64(k.r.U1)<<9 ^ uint64(k.r.P0)<<17 ^ uint64(k.r.P1)<<25
	h ^= uint64(k.r.I0)<<33 ^ uint64(k.r.I1)<<41
	if k.r.UsesPath {
		h ^= 0xdead
	}
	h ^= h >> 29
	h *= 0x9e3779b97f4a7c15
	h ^= h >> 32
	return h % pcShardCount
}

// get returns the cached value for k, bumping it to most-recent.
func (c *PatternCache) get(k pcKey) (any, bool) {
	sh := &c.shards[k.shard()]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if v, ok := sh.lru.Get(k); ok {
		c.hits.Add(1)
		return v, true
	}
	c.misses.Add(1)
	return nil, false
}

// put stores v under k, evicting the least-recently-used entry of the shard
// at the cap. A racing duplicate insert keeps the first value.
func (c *PatternCache) put(k pcKey, v any) {
	idx := k.shard()
	sh := &c.shards[idx]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.lru.Peek(k); ok {
		return
	}
	for sh.lru.Len() >= c.shardCap[idx] {
		oldest, _, _ := sh.lru.Oldest()
		sh.lru.Remove(oldest)
		c.evictions.Add(1)
	}
	sh.lru.Put(k, v, 1)
}

// structural returns the memoised region geometry, computing it on miss.
func (c *PatternCache) structural(a *arch.Arch, r arch.Region) *regionInfo {
	k := pcKey{fp: a.Fingerprint(), r: r}
	if v, ok := c.get(k); ok {
		return v.(*regionInfo)
	}
	ri := newRegionInfo(a, r)
	c.put(k, ri)
	return ri
}

func newRegionInfo(a *arch.Arch, r arch.Region) *regionInfo {
	ri := &regionInfo{norm: NormalizeRegion(a, r)}
	if !ri.norm.UsesPath && len(a.Units) > 0 {
		ri.units = regionUnits(a, ri.norm)
		if a.Snake != nil {
			ri.snakeSeg, ri.snakeOK = restrictSnake(a, ri.norm)
		}
	}
	return ri
}

// restrictSnake computes the architecture snake confined to a region
// rectangle and whether the restriction is contiguous (couplings survive) —
// the precondition for snakeATA to stay inside the region.
func restrictSnake(a *arch.Arch, region arch.Region) ([]int, bool) {
	unitOf, posOf := a.UnitIndex()
	var seg []int
	for _, q := range a.Snake {
		u, p := unitOf[q], posOf[q]
		if u >= region.U0 && u <= region.U1 && p >= region.P0 && p <= region.P1 {
			seg = append(seg, q)
		}
	}
	for i := 0; i+1 < len(seg); i++ {
		if !a.G.HasEdge(seg[i], seg[i+1]) {
			return seg, false
		}
	}
	return seg, len(seg) >= 2
}
