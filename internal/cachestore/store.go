package cachestore

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/ata-pattern/ataqc/internal/lru"
)

// Store is the on-disk tier: one file per entry under 256 hash-prefix
// shard directories. The entry files are the only record of what the
// store holds; Open builds the entry table by listing them. All methods
// are safe for concurrent use.
//
// Get never returns an error: absent, unreadable, or corrupt entries are
// misses (corrupt ones also bump the corruption counter and are deleted).
// Put reports real I/O failures — callers on the compile path treat them
// as best-effort and keep going.
type Store struct {
	dir      string
	maxBytes int64

	// mu guards the table together with every change this process makes
	// to the entry files, so they change in step.
	mu sync.Mutex
	// table maps each entry to the generation of the write that produced
	// its file, weighted by the file's size in bytes. The generation lets
	// a reader that lost a race with eviction or replacement tell its
	// failed read apart from a damaged file.
	table lru.List[Key, uint64]
	gen   uint64

	hits, misses, puts, corrupt, evictions int64
}

// StoreStats is a point-in-time snapshot of the disk tier.
type StoreStats struct {
	Hits, Misses, Puts, Corrupt, Evictions int64
	Entries                                int
	Bytes                                  int64
}

// Open readies dir as a store, creating it if needed. maxBytes bounds
// the total entry bytes on disk (0 = unbounded); exceeding it evicts
// approximately-least-recently-used entries. The entry table is built
// from the entry files alone, so whatever a crash left behind costs at
// most a miss: a temp file of an unfinished Put is skipped, an entry
// file renamed into place is indexed, and a damaged one is dropped by
// Get.
func Open(dir string, maxBytes int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cachestore: %w", err)
	}
	s := &Store{dir: dir, maxBytes: maxBytes}
	if err := s.scan(); err != nil {
		return nil, err
	}
	s.evictLocked(Key{})
	return s, nil
}

// Close releases nothing, since the store holds no file open between
// calls; it lets callers close every tier alike.
func (s *Store) Close() error { return nil }

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// scan fills the entry table from the entry files in the shard
// directories, skipping everything else. Entries go in oldest first by
// modification time, then by name, so eviction after a restart follows
// the order the entries were put in.
func (s *Store) scan() error {
	dirs, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("cachestore: %w", err)
	}
	type entry struct {
		k    Key
		name string
		mod  time.Time
		size int64
	}
	var entries []entry
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.dir, d.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			k, ok := parseFilename(f.Name())
			if !ok || k.shardDir() != d.Name() {
				continue
			}
			info, err := f.Info()
			if err != nil || !info.Mode().IsRegular() {
				continue
			}
			entries = append(entries, entry{k, f.Name(), info.ModTime(), info.Size()})
		}
	}
	slices.SortFunc(entries, func(a, b entry) int {
		if c := a.mod.Compare(b.mod); c != 0 {
			return c
		}
		return strings.Compare(a.name, b.name)
	})
	for _, e := range entries {
		s.insertMeta(e.k, e.size)
	}
	return nil
}

// insertMeta records a new generation of k as the most recent entry;
// callers hold the lock (or run single-threaded during Open).
func (s *Store) insertMeta(k Key, size int64) {
	s.gen++
	s.table.Put(k, s.gen, size)
}

func (s *Store) path(k Key) string {
	return filepath.Join(s.dir, k.shardDir(), k.filename())
}

// Put stores payload under k, replacing any existing entry. The data
// file is written to a temp file and fsync'd before it is renamed into
// place, so a crash leaves either the old entry or the new one, plus at
// most a temp file that Open skips.
func (s *Store) Put(k Key, payload []byte) error {
	if len(payload) > maxPayloadLen {
		return fmt.Errorf("cachestore: payload %d bytes exceeds the %d cap", len(payload), maxPayloadLen)
	}
	blob := EncodeEntry(k, payload)
	shard := filepath.Join(s.dir, k.shardDir())
	if err := os.MkdirAll(shard, 0o755); err != nil {
		return fmt.Errorf("cachestore: %w", err)
	}
	tmp, err := os.CreateTemp(shard, "put-*")
	if err != nil {
		return fmt.Errorf("cachestore: %w", err)
	}
	if _, err := tmp.Write(blob); err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("cachestore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cachestore: %w", err)
	}

	// The rename happens under the lock so that no eviction or
	// corruption drop can remove the new file before it is in the table.
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.Rename(tmp.Name(), s.path(k)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cachestore: %w", err)
	}
	s.puts++
	s.insertMeta(k, int64(len(blob)))
	s.evictLocked(k)
	return nil
}

// Get returns the payload stored under k. Missing entries are plain
// misses; entries that fail validation are deleted, counted corrupt, and
// reported as misses.
func (s *Store) Get(k Key) ([]byte, bool) {
	s.mu.Lock()
	gen, ok := s.table.Get(k)
	if !ok {
		s.misses++
		s.mu.Unlock()
		return nil, false
	}
	s.mu.Unlock()

	if blob, err := os.ReadFile(s.path(k)); err == nil {
		if gotKey, payload, err := DecodeEntry(blob); err == nil && gotKey == k {
			s.mu.Lock()
			s.hits++
			s.mu.Unlock()
			return payload, true
		}
	}
	// A file the table promised but the filesystem no longer has is
	// treated exactly like a damaged one.
	s.dropCorrupt(k, gen)
	return nil, false
}

// dropCorrupt handles a failed read of generation gen of k. If the table
// still holds that generation, the file is missing or damaged: it is
// counted corrupt and removed from the table and the disk.
// Otherwise a concurrent Put evicted or replaced the entry while it was
// being read, and the failure is a plain miss that touches nothing.
func (s *Store) dropCorrupt(k Key, gen uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.misses++
	if cur, ok := s.table.Peek(k); !ok || cur != gen {
		return
	}
	s.corrupt++
	s.removeLocked(k)
}

// evictLocked deletes least-recently-used entries until the byte budget
// holds, never evicting keep (the entry just written).
func (s *Store) evictLocked(keep Key) {
	if s.maxBytes <= 0 {
		return
	}
	for s.table.Cost() > s.maxBytes {
		k, _, ok := s.table.Oldest()
		if !ok || k == keep {
			return
		}
		s.evictions++
		s.removeLocked(k)
	}
}

// removeLocked deletes k from the table and the disk.
func (s *Store) removeLocked(k Key) {
	s.table.Remove(k)
	os.Remove(s.path(k))
}

// Stats snapshots the disk-tier counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		Hits: s.hits, Misses: s.misses, Puts: s.puts,
		Corrupt: s.corrupt, Evictions: s.evictions,
		Entries: s.table.Len(), Bytes: s.table.Cost(),
	}
}
