package cachestore

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/ata-pattern/ataqc/internal/lru"
)

// Store is the on-disk tier: one file per entry under 256 hash-prefix
// shard directories, plus an append-only journal (index.log) that lets
// Open rebuild the entry table without statting every file. All methods
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
	// to the entry files and the journal, so they change in step.
	mu    sync.Mutex
	index *os.File
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

const indexName = "index.log"

// Open readies dir as a store, creating it if needed. maxBytes bounds
// the total entry bytes on disk (0 = unbounded); exceeding it evicts
// approximately-least-recently-used entries. An unreadable or partially
// written journal falls back to a full directory rescan — crash debris
// costs a slower open, never an error.
func Open(dir string, maxBytes int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cachestore: %w", err)
	}
	s := &Store{dir: dir, maxBytes: maxBytes}
	if !s.replayIndex() {
		if err := s.rescan(); err != nil {
			return nil, err
		}
	}
	idx, err := os.OpenFile(filepath.Join(dir, indexName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("cachestore: %w", err)
	}
	s.index = idx
	s.mu.Lock()
	s.evictLocked(Key{})
	s.mu.Unlock()
	return s, nil
}

// Close releases the journal handle. The store must not be used after.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.index == nil {
		return nil
	}
	err := s.index.Close()
	s.index = nil
	return err
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// replayIndex rebuilds the entry table from the journal. It returns
// false when the journal is absent or unusable; a torn final line (a
// crash mid-append) is tolerated by ignoring unparsable lines.
func (s *Store) replayIndex() bool {
	f, err := os.Open(filepath.Join(s.dir, indexName))
	if err != nil {
		return false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 4096), 1<<20)
	any := false
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 {
			continue
		}
		k, ok := parseFilename(fields[1])
		if !ok {
			continue
		}
		switch fields[0] {
		case "P":
			if len(fields) != 3 {
				continue
			}
			size, err := strconv.ParseInt(fields[2], 10, 64)
			if err != nil || size < 0 {
				continue
			}
			s.insertMeta(k, size)
			any = true
		case "D":
			s.table.Remove(k)
			any = true
		}
	}
	if sc.Err() != nil {
		return false
	}
	// An empty journal over a non-empty store means the journal was
	// clobbered; make the caller rescan.
	if !any && s.hasEntryFiles() {
		return false
	}
	return true
}

func (s *Store) hasEntryFiles() bool {
	dirs, err := os.ReadDir(s.dir)
	if err != nil {
		return false
	}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.dir, d.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			if strings.HasSuffix(f.Name(), ".e") {
				return true
			}
		}
	}
	return false
}

// rescan walks the shard directories and rebuilds both the entry table
// and a fresh journal (written atomically so a crash mid-rescan leaves
// the old one).
func (s *Store) rescan() error {
	s.table = lru.List[Key, uint64]{}
	dirs, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("cachestore: %w", err)
	}
	var lines []string
	for _, d := range dirs {
		if !d.IsDir() || len(d.Name()) != 2 {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.dir, d.Name()))
		if err != nil {
			continue
		}
		sort.Slice(files, func(i, j int) bool { return files[i].Name() < files[j].Name() })
		for _, f := range files {
			k, ok := parseFilename(f.Name())
			if !ok {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			s.insertMeta(k, info.Size())
			lines = append(lines, fmt.Sprintf("P %s %d\n", f.Name(), info.Size()))
		}
	}
	tmp, err := os.CreateTemp(s.dir, "index-*")
	if err != nil {
		return fmt.Errorf("cachestore: %w", err)
	}
	for _, l := range lines {
		if _, err := tmp.WriteString(l); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("cachestore: %w", err)
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("cachestore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cachestore: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, indexName)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cachestore: %w", err)
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
// file is fsync'd before the rename and the journal line is fsync'd
// after it, so a crash leaves either the old entry, the new entry, or a
// journal/file skew the next Open's Get-time validation absorbs.
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
	s.journalLocked(fmt.Sprintf("P %s %d\n", k.filename(), len(blob)))
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
// counted corrupt and removed from the table, the journal and the disk.
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

// removeLocked deletes k from the table, the journal and the disk.
func (s *Store) removeLocked(k Key) {
	s.table.Remove(k)
	s.journalLocked(fmt.Sprintf("D %s\n", k.filename()))
	os.Remove(s.path(k))
}

// journalLocked appends one line to the index and fsyncs it. Journal
// write failures are swallowed: the journal is an optimization — a stale
// one costs a rescan or a Get-time validation miss, not correctness.
func (s *Store) journalLocked(line string) {
	if s.index == nil {
		return
	}
	if _, err := s.index.WriteString(line); err == nil {
		_ = s.index.Sync()
	}
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
