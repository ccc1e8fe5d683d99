package swapnet

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/graph"
)

func cacheTestArchs() []*arch.Arch {
	return []*arch.Arch{
		arch.Line(10),
		arch.Grid(4, 4),
		arch.Grid(5, 3),
		arch.Sycamore(4, 4),
		arch.Hexagon(4, 4),
		arch.HeavyHex(2, 8),
		arch.Lattice3D(3, 3, 3),
	}
}

// stepLog is a sink that keeps a copy of every emitted step.
type stepLog []Step

func (l *stepLog) emit(s Step) { *l = append(*l, copyStep(s)) }

// randomRegion returns the enclosing region of a random non-empty subset of
// physical qubits — the same construction detectRegions uses, so the
// sampled regions are exactly the shapes the compiler feeds the cache.
func randomRegion(rng *rand.Rand, a *arch.Arch) arch.Region {
	k := 2 + rng.Intn(a.N()-1)
	return arch.EnclosingRegion(a, rng.Perm(a.N())[:k])
}

// TestCachedATAMatchesUncached is the cache's core correctness property:
// for 200 random (arch, region, mapping, want) quadruples, ATAWithCache
// emits exactly the step sequence of the uncached ATA and leaves the same
// final mapping — on the cold pass (region geometry computed) and on the
// warm pass (region geometry from the cache) alike.
func TestCachedATAMatchesUncached(t *testing.T) {
	archs := cacheTestArchs()
	rng := rand.New(rand.NewSource(7))
	cache := NewPatternCache(0)
	for trial := 0; trial < 200; trial++ {
		a := archs[rng.Intn(len(archs))]
		nLogical := 2 + rng.Intn(a.N()-1)
		p := graph.Gnp(nLogical, 0.2+0.6*rng.Float64(), rng)
		initial := randomMapping(rng, nLogical, a.N())
		region := randomRegion(rng, a)

		ref := NewState(a, nLogical, initial, p)
		var refLog stepLog
		if err := ATA(ref, region, refLog.emit); err != nil {
			t.Fatalf("trial %d (%s): uncached: %v", trial, a.Name, err)
		}
		for pass, label := range []string{"cold", "warm"} {
			st := NewState(a, nLogical, initial, p)
			var log stepLog
			if err := ATAWithCache(st, region, log.emit, cache); err != nil {
				t.Fatalf("trial %d (%s) %s: %v", trial, a.Name, label, err)
			}
			if !reflect.DeepEqual(refLog, log) {
				t.Fatalf("trial %d (%s) %s pass: step sequence diverges from uncached ATA (%d vs %d steps)",
					trial, a.Name, label, len(log), len(refLog))
			}
			if !reflect.DeepEqual(ref.L2P, st.L2P) || ref.Want.Len() != st.Want.Len() {
				t.Fatalf("trial %d (%s) %s pass: final state diverges", trial, a.Name, label)
			}
			_ = pass
		}
	}
	s := cache.Stats()
	if s.Hits == 0 {
		t.Fatal("warm passes produced no cache hits")
	}
	if s.Entries == 0 || s.Entries > cache.Capacity() {
		t.Fatalf("entry count %d out of bounds (cap %d)", s.Entries, cache.Capacity())
	}
}

// TestCacheNormalizeRegionMatches pins the cached normalised region against
// the package-level NormalizeRegion for random regions on every family.
func TestCacheNormalizeRegionMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cache := NewPatternCache(0)
	for _, a := range cacheTestArchs() {
		for i := 0; i < 50; i++ {
			r := randomRegion(rng, a)
			if got, want := cache.structural(a, r).norm, NormalizeRegion(a, r); got != want {
				t.Fatalf("%s region %+v: cached %+v != direct %+v", a.Name, r, got, want)
			}
		}
	}
}

// TestCacheConcurrentHits hammers one shared cache from 16 goroutines, each
// replaying the same workload and checking every emission against an
// uncached reference. Run under -race in CI, this is the witness that
// concurrent get/put/structural traffic is safe and never serves a wrong
// entry.
func TestCacheConcurrentHits(t *testing.T) {
	type workItem struct {
		a       *arch.Arch
		p       *graph.Graph
		n       int
		initial []int
		region  arch.Region
		steps   stepLog
	}
	archs := cacheTestArchs()
	rng := rand.New(rand.NewSource(23))
	var items []workItem
	for i := 0; i < 24; i++ {
		a := archs[rng.Intn(len(archs))]
		n := 2 + rng.Intn(a.N()-1)
		p := graph.Gnp(n, 0.3+0.5*rng.Float64(), rng)
		initial := randomMapping(rng, n, a.N())
		region := randomRegion(rng, a)
		st := NewState(a, n, initial, p)
		var log stepLog
		if err := ATA(st, region, log.emit); err != nil {
			t.Fatal(err)
		}
		items = append(items, workItem{a: a, p: p, n: n, initial: initial, region: region, steps: log})
	}
	cache := NewPatternCache(0)
	const goroutines = 16
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Stagger starting offsets so goroutines collide on different
			// keys at different times.
			for rep := 0; rep < 4; rep++ {
				for k := range items {
					it := items[(k+g)%len(items)]
					st := NewState(it.a, it.n, it.initial, it.p)
					var log stepLog
					if err := ATAWithCache(st, it.region, log.emit, cache); err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(it.steps, log) {
						errs <- fmt.Errorf("goroutine %d: cached emission diverges on %s", g, it.a.Name)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.Hits == 0 {
		t.Fatal("concurrent replays produced no cache hits")
	}
}

// TestCacheEvictionAtCap fills a tiny cache far past its capacity and
// checks the LRU bound holds, evictions are counted, and an evicted entry
// is transparently recomputed (same value, not a stale or missing one).
func TestCacheEvictionAtCap(t *testing.T) {
	a := arch.Grid(8, 8)
	cache := NewPatternCache(16) // 1 entry per shard
	if cache.Capacity() != 16 {
		t.Fatalf("capacity = %d, want 16", cache.Capacity())
	}
	var regions []arch.Region
	for u0 := 0; u0 < 8; u0++ {
		for u1 := u0; u1 < 8; u1++ {
			regions = append(regions, arch.Region{U0: u0, U1: u1, P0: 0, P1: 7})
		}
	}
	first := cache.structural(a, regions[0])
	for _, r := range regions {
		cache.structural(a, r)
	}
	s := cache.Stats()
	if s.Entries > cache.Capacity() {
		t.Fatalf("entries %d exceed capacity %d", s.Entries, cache.Capacity())
	}
	if s.Evictions == 0 {
		t.Fatalf("no evictions after inserting %d entries into a %d-entry cache", len(regions), cache.Capacity())
	}
	// Whether regions[0] survived or was evicted, a re-request must return
	// the same geometry.
	again := cache.structural(a, regions[0])
	if !reflect.DeepEqual(first.norm, again.norm) || !reflect.DeepEqual(first.units, again.units) {
		t.Fatal("recomputed entry after eviction diverges from the original")
	}
}

// TestCacheCapacityDistribution is the regression test for the shard
// rounding fix: requested capacities must be distributed exactly across
// the shards (first capacity%pcShardCount shards take the extra entry),
// never rounded down per shard, with every shard keeping at least one
// slot. Before the fix a 100-entry cache silently enforced 96 and
// Capacity lied about sub-shard-count requests.
func TestCacheCapacityDistribution(t *testing.T) {
	cases := []struct {
		requested, want int
	}{
		{1, pcShardCount},  // raised to one slot per shard
		{5, pcShardCount},  // likewise
		{15, pcShardCount}, // likewise
		{16, 16},
		{17, 17},   // one shard gets the extra entry
		{100, 100}, // 6*16=96 before the fix
		{0, DefaultCacheCapacity},
	}
	for _, tc := range cases {
		c := NewPatternCache(tc.requested)
		if got := c.Capacity(); got != tc.want {
			t.Errorf("NewPatternCache(%d).Capacity() = %d, want %d", tc.requested, got, tc.want)
		}
		total, maxShard, minShard := 0, 0, int(^uint(0)>>1)
		for _, n := range c.shardCap {
			total += n
			if n > maxShard {
				maxShard = n
			}
			if n < minShard {
				minShard = n
			}
		}
		if total != tc.want {
			t.Errorf("capacity %d: shard caps sum to %d, want %d", tc.requested, total, tc.want)
		}
		if minShard < 1 {
			t.Errorf("capacity %d: a shard has cap %d (< 1)", tc.requested, minShard)
		}
		if maxShard-minShard > 1 {
			t.Errorf("capacity %d: uneven distribution, shard caps span [%d, %d]", tc.requested, minShard, maxShard)
		}
	}

	// The enforced bound is the reported one: overfill a 17-entry cache and
	// check the entry count never exceeds Capacity.
	c := NewPatternCache(17)
	for i := 0; i < 400; i++ {
		c.put(pcKey{fp: uint64(i), r: arch.Region{U0: i % 7, U1: i % 7}}, i)
	}
	if s := c.Stats(); s.Entries > c.Capacity() {
		t.Fatalf("entries %d exceed reported capacity %d", s.Entries, c.Capacity())
	}
}

// TestCacheDuplicatePutKeepsFirst: racing inserts of the same key must
// converge on one entry (the first), never grow duplicates.
func TestCacheDuplicatePutKeepsFirst(t *testing.T) {
	cache := NewPatternCache(0)
	k := pcKey{fp: 99, r: arch.Region{U0: 1, U1: 2}}
	cache.put(k, "first")
	cache.put(k, "second")
	v, ok := cache.get(k)
	if !ok || v.(string) != "first" {
		t.Fatalf("got (%v, %v), want the first inserted value", v, ok)
	}
	if s := cache.Stats(); s.Entries != 1 {
		t.Fatalf("duplicate put grew the cache: %d entries", s.Entries)
	}
}
