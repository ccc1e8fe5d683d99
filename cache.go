package ataqc

import (
	"fmt"

	"github.com/ata-pattern/ataqc/internal/cachestore"
	"github.com/ata-pattern/ataqc/internal/core"
)

// Cache is a compilation cache shared across Compile calls: an in-memory
// LRU of compiled results, optionally backed by a persistent on-disk
// store, plus the structured-pattern geometry cache the hybrid strategy
// fills as it compiles. Only results reach the disk: pattern geometry is
// cheap to derive, so each process recomputes it on first use. Attach
// one via Options.Cache.
//
// Results are keyed by (architecture fingerprint, canonical problem-graph
// hash, options digest): isomorphic problems share an entry, and a cached
// answer for the identical problem is byte-for-byte the circuit a fresh
// compile would produce. Every served entry is re-verified by the same
// error-severity analyzers a fresh compile must pass, so a corrupted
// cache costs time, never correctness. Degraded (budget-exhausted)
// results are never cached.
//
// A Cache is safe for concurrent use by any number of compiles.
type Cache struct {
	inner *core.Cache
	dir   string
}

// OpenCache opens (creating if needed) a persistent compilation cache
// rooted at dir, fronted by an in-memory LRU. maxBytes bounds the total
// bytes on disk (0 = unbounded); exceeding it evicts least-recently-used
// entries. A store left by a crash is recovered by rescan; damaged
// entries are silently dropped on first access.
func OpenCache(dir string, maxBytes int64) (*Cache, error) {
	store, err := cachestore.Open(dir, maxBytes)
	if err != nil {
		return nil, fmt.Errorf("ataqc: open cache %s: %w", dir, err)
	}
	return &Cache{inner: core.NewCache(cachestore.NewTiered(store, 0)), dir: dir}, nil
}

// MemoryCache returns a process-lifetime compilation cache with no disk
// tier: results and pattern state are shared across compiles but vanish
// with the process.
func MemoryCache() *Cache {
	return &Cache{inner: core.NewCache(cachestore.NewTiered(nil, 0))}
}

// Dir returns the cache's on-disk root ("" for a memory-only cache).
func (c *Cache) Dir() string { return c.dir }

// Close flushes and closes the disk tier, if any. The cache must not be
// used after Close.
func (c *Cache) Close() error { return c.inner.Close() }

// CacheStats is a point-in-time snapshot of every cache layer.
type CacheStats struct {
	// MemHits / DiskHits / Misses count result lookups by the tier that
	// answered. Disk hits are promoted into memory.
	MemHits, DiskHits, Misses int64
	// Corrupt counts entries rejected at decode or re-verification
	// (each fell through to a fresh compile).
	Corrupt int64
	// PutFailures counts results the disk tier could not persist (the
	// memory tier still accepted them).
	PutFailures int64
	// CanonGiveups counts requests whose canonical form ran out of time or
	// work and fell back to a labeling-dependent key (sound, but an
	// isomorphic resubmission may miss).
	CanonGiveups int64
	// Evictions counts disk entries displaced by the byte budget.
	Evictions int64
	// MemEntries / DiskEntries / DiskBytes size the two tiers.
	MemEntries  int
	DiskEntries int
	DiskBytes   int64
	// PatternHits / PatternMisses count structured-pattern geometry
	// lookups inside the hybrid prediction loop.
	PatternHits, PatternMisses int64
}

// Stats snapshots the cache's counters.
func (c *Cache) Stats() CacheStats {
	s := c.inner.Stats()
	return CacheStats{
		MemHits:       s.Result.MemHits,
		DiskHits:      s.Result.DiskHits,
		Misses:        s.Result.Misses,
		Corrupt:       s.Corrupt + s.Result.Disk.Corrupt,
		PutFailures:   s.PutFailures,
		CanonGiveups:  s.CanonGiveups,
		Evictions:     s.Result.Disk.Evictions,
		MemEntries:    s.Result.MemEntries,
		DiskEntries:   s.Result.Disk.Entries,
		DiskBytes:     s.Result.Disk.Bytes,
		PatternHits:   s.Patterns.Hits,
		PatternMisses: s.Patterns.Misses,
	}
}
