package swapnet

import (
	"sync"
	"sync/atomic"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/graph"
	"github.com/ata-pattern/ataqc/internal/lru"
)

// PatternCache memoises the region-derived structures the ATA patterns
// recompute on every invocation: normalised regions, the unit segments of a
// region, the snake restriction to a region, and — for grids — which of the
// two candidate patterns (unit-structured vs snake) wins for a given
// (region, mapping, want) state. The hybrid compiler's prediction loop
// evaluates many checkpoints over the same few active regions, and the
// winning candidate is re-materialised after selection from the exact
// state it was scored at, so these entries see real hits.
//
// Entries are keyed by the architecture's structural fingerprint rather than
// the *Arch pointer, so independently constructed but identical devices
// (common in benchmarks) share them. The cache is safe for concurrent use:
// it is sharded, each shard guarded by a mutex around a size-capped LRU.
// Cached slices are read-only by contract — the patterns only ever read
// them; the choice replay emits steps copied out of the pattern buffers.
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
	// built with NewPatternCache(0). Structural entries are one per (arch,
	// region) and tiny; choice entries are one per distinct prediction
	// state. 4096 comfortably covers a large compilation while keeping the
	// worst-case footprint in the low megabytes.
	DefaultCacheCapacity = 4096
)

type pcShard struct {
	mu  sync.Mutex
	lru lru.List[pcKey, any]
}

// pcKey identifies a cache entry. Structural entries (region-derived
// geometry) leave occ/want zero; grid-choice entries add the state hash of
// the occupants and wanted edges the patterns' behaviour depends on.
type pcKey struct {
	fp     uint64
	r      arch.Region
	choice bool
	occ    uint64
	want   uint64
}

// regionInfo is a structural entry: everything about a region that depends
// only on the architecture and region bounds, not on the mapping.
type regionInfo struct {
	norm arch.Region
	// units are the region's unit segments (regionUnits of norm); nil for
	// path-encoded regions.
	units [][]int
	// qubits flattens the region's physical qubits; inRegion marks them by
	// physical id (len == a.N()).
	qubits   []int
	inRegion []bool
	// snakeSeg is the architecture snake restricted to the region, and
	// snakeOK whether that restriction is contiguous (snakeATA falls back
	// to the full snake when it is not — which widens the state the grid
	// pattern choice depends on, see stateHash).
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
	if k.choice {
		h ^= 0xbeef
	}
	h ^= k.occ ^ k.want
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
	ri.inRegion = make([]bool, a.N())
	if ri.norm.UsesPath || len(a.Units) == 0 {
		i0, i1 := ri.norm.I0, ri.norm.I1
		if i1 >= len(a.Path) {
			i1 = len(a.Path) - 1
		}
		if i0 >= 0 && i0 <= i1 {
			ri.qubits = a.Path[i0 : i1+1]
		}
	} else {
		ri.units = regionUnits(a, ri.norm)
		for _, u := range ri.units {
			ri.qubits = append(ri.qubits, u...)
		}
	}
	for _, q := range ri.qubits {
		ri.inRegion[q] = true
	}
	if a.Snake != nil && !ri.norm.UsesPath && len(a.Units) > 0 {
		ri.snakeSeg, ri.snakeOK = restrictSnake(a, ri.norm)
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

// NormalizeRegion is the memoised form of the package-level NormalizeRegion.
func (c *PatternCache) NormalizeRegion(a *arch.Arch, r arch.Region) arch.Region {
	return c.structural(a, r).norm
}

// stateHash digests the part of st the grid pattern choice depends on: the
// occupants of the dependency qubits and the wanted edges among them. When
// the snake restriction is contiguous both candidate patterns stay inside
// the region, so only region-local state matters — plus one bit, whether
// any wanted edge lies outside the region, because snakeBeatsGrid asks
// whether a candidate left the whole want set empty. Otherwise snakeATA
// falls back to the full snake and the whole mapping and want set
// participate. The want digest XORs per-edge hashes, so it depends only
// on which edges are wanted.
func (ri *regionInfo) stateHash(st *State) (occ, want uint64) {
	occ = fnvOffset
	local := ri.snakeOK || st.A.Snake == nil
	if local {
		for _, q := range ri.qubits {
			occ = fnvWord(fnvWord(occ, uint64(q)), uint64(st.P2L[q]))
		}
	} else {
		for q, l := range st.P2L {
			occ = fnvWord(fnvWord(occ, uint64(q)), uint64(l))
		}
	}
	outside := false
	st.Want.each(func(e graph.Edge) {
		if local && (!ri.inRegion[st.L2P[e.U]] || !ri.inRegion[st.L2P[e.V]]) {
			outside = true
			return
		}
		want ^= fnvWord(fnvOffset, uint64(e.U)<<32|uint64(uint32(e.V)))
	})
	if outside {
		occ = fnvWord(occ, ^uint64(0))
	}
	return occ, want
}

// FNV-1a (64-bit), fed one little-endian word at a time: the digest
// hash/fnv's New64a computes over the same bytes, without the hasher.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvWord(h, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= (w >> (8 * i)) & 0xff
		h *= fnvPrime
	}
	return h
}

// choiceGet looks up a memoised grid pattern choice: whether the snake
// won the dual prediction from the given state.
func (c *PatternCache) choiceGet(fp uint64, r arch.Region, occ, want uint64) (snake, ok bool) {
	v, ok := c.get(pcKey{fp: fp, r: r, choice: true, occ: occ, want: want})
	if !ok {
		return false, false
	}
	return v.(bool), true
}

// choicePut stores a grid pattern choice.
func (c *PatternCache) choicePut(fp uint64, r arch.Region, occ, want uint64, snake bool) {
	c.put(pcKey{fp: fp, r: r, choice: true, occ: occ, want: want}, snake)
}

// stepRecorder buffers emitted steps while counting them. Emitted slices
// are valid only during the emit call (EmitFunc), so it copies each step
// into flat arenas; the recorded steps stay valid for its lifetime. With
// a stop State it stops that State once the counted cycles exceed
// maxCycles.
type stepRecorder struct {
	steps     []Step
	gates     []PhysGate
	edges     []graph.Edge
	layers    [][]graph.Edge
	c         Counter
	stop      *State
	maxCycles int
}

// reset empties the recorder and sets its cycle bound (stop may be nil).
func (r *stepRecorder) reset(stop *State, maxCycles int) {
	r.steps, r.gates, r.edges, r.layers = r.steps[:0], r.gates[:0], r.edges[:0], r.layers[:0]
	r.c = Counter{}
	r.stop, r.maxCycles = stop, maxCycles
}

func (r *stepRecorder) emit(s Step) {
	r.c.Emit(s)
	if r.stop != nil && r.c.Cycles > r.maxCycles {
		r.stop.Stop()
	}
	rec := Step{ParallelSwaps: s.ParallelSwaps}
	if len(s.Compute) > 0 {
		i := len(r.gates)
		r.gates = append(r.gates, s.Compute...)
		rec.Compute = r.gates[i:len(r.gates):len(r.gates)]
	}
	if len(s.Swaps) > 0 {
		li := len(r.layers)
		for _, l := range s.Swaps {
			var cp []graph.Edge
			if len(l) > 0 {
				i := len(r.edges)
				r.edges = append(r.edges, l...)
				cp = r.edges[i:len(r.edges):len(r.edges)]
			}
			r.layers = append(r.layers, cp)
		}
		rec.Swaps = r.layers[li:len(r.layers):len(r.layers)]
	}
	r.steps = append(r.steps, rec)
}
