package cachestore

import (
	"sync"

	"github.com/ata-pattern/ataqc/internal/lru"
)

// Tier names which cache level answered a lookup.
type Tier string

const (
	// TierMem is the in-process LRU front.
	TierMem Tier = "mem"
	// TierDisk is the persistent store; disk hits are promoted into mem.
	TierDisk Tier = "disk"
	// TierNone means the lookup missed both levels (or bypassed the
	// cache entirely).
	TierNone Tier = ""
)

// Tiered fronts a disk Store with a bounded in-memory payload LRU. A Get
// tries memory first, then disk (promoting hits); a Put lands in both. A
// nil disk store degrades to a process-lifetime memory cache, so callers
// configure one code path whether or not -cache-dir was given.
type Tiered struct {
	disk *Store

	mu  sync.Mutex
	mem lru.List[Key, []byte]
	cap int

	memHits, diskHits, misses int64
}

// DefaultMemEntries bounds NewTiered(_, 0): result payloads are a few KB
// each, so the worst-case memory footprint stays in the tens of MB.
const DefaultMemEntries = 4096

// NewTiered wraps disk (nil = memory only) with a memEntries-entry LRU
// front (0 or negative = DefaultMemEntries).
func NewTiered(disk *Store, memEntries int) *Tiered {
	if memEntries <= 0 {
		memEntries = DefaultMemEntries
	}
	return &Tiered{disk: disk, cap: memEntries}
}

// Get returns the payload for k and the tier that answered. The returned
// slice is shared with the cache: callers must treat it as read-only.
func (t *Tiered) Get(k Key) ([]byte, Tier, bool) {
	t.mu.Lock()
	if p, ok := t.mem.Get(k); ok {
		t.memHits++
		t.mu.Unlock()
		return p, TierMem, true
	}
	t.mu.Unlock()
	if t.disk != nil {
		if payload, ok := t.disk.Get(k); ok {
			t.mu.Lock()
			t.diskHits++
			t.insertLocked(k, payload)
			t.mu.Unlock()
			return payload, TierDisk, true
		}
	}
	t.mu.Lock()
	t.misses++
	t.mu.Unlock()
	return nil, TierNone, false
}

// Put stores payload in the memory tier and, when present, the disk
// tier. Disk write failures are returned for observability but the
// memory tier has already accepted the entry — the cache stays useful on
// a full disk.
func (t *Tiered) Put(k Key, payload []byte) error {
	t.mu.Lock()
	t.insertLocked(k, payload)
	t.mu.Unlock()
	if t.disk == nil {
		return nil
	}
	return t.disk.Put(k, payload)
}

// insertLocked stores (or replaces) payload as the most recent entry,
// then evicts the least recent ones down to the cap.
func (t *Tiered) insertLocked(k Key, payload []byte) {
	t.mem.Put(k, payload, 1)
	for t.mem.Len() > t.cap {
		oldest, _, _ := t.mem.Oldest()
		t.mem.Remove(oldest)
	}
}

// Close closes the disk tier (no-op when memory-only).
func (t *Tiered) Close() error {
	if t.disk == nil {
		return nil
	}
	return t.disk.Close()
}

// TieredStats is the two-level snapshot surfaced in /statz and /metricsz.
type TieredStats struct {
	MemHits, DiskHits, Misses int64
	MemEntries                int
	Disk                      StoreStats
}

// Stats snapshots both tiers.
func (t *Tiered) Stats() TieredStats {
	t.mu.Lock()
	st := TieredStats{
		MemHits:    t.memHits,
		DiskHits:   t.diskHits,
		Misses:     t.misses,
		MemEntries: t.mem.Len(),
	}
	t.mu.Unlock()
	if t.disk != nil {
		st.Disk = t.disk.Stats()
	}
	return st
}
