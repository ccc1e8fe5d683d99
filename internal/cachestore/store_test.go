package cachestore

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func testKey(i byte) Key {
	var h [32]byte
	h[0] = i
	h[31] = i ^ 0x5a
	return ResultKey(0xfeed, h, uint64(i))
}

func TestStorePutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k := testKey(1)
	payload := []byte("compiled circuit bytes")
	if err := s.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(k)
	if !ok || string(got) != string(payload) {
		t.Fatalf("Get = %q, %v; want stored payload", got, ok)
	}
	if _, ok := s.Get(testKey(2)); ok {
		t.Fatal("absent key reported a hit")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Bytes <= int64(len(payload)) {
		t.Fatalf("accounted bytes %d do not cover payload+frame", st.Bytes)
	}
}

func TestStorePersistsAcrossOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := byte(0); i < 10; i++ {
		if err := s.Put(testKey(i), []byte{i, i, i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := byte(0); i < 10; i++ {
		got, ok := s2.Get(testKey(i))
		if !ok || len(got) != 3 || got[0] != i {
			t.Fatalf("after reopen: entry %d = %v, %v", i, got, ok)
		}
	}
	s2.Close()
}

func TestStoreCorruptionIsSilentMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k := testKey(3)
	if err := s.Put(k, []byte("precious bits")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, k.shardDir(), k.filename())
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0x40 // flip one bit mid-payload
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("bit-flipped entry served as a hit")
	}
	st := s.Stats()
	if st.Corrupt != 1 {
		t.Fatalf("corrupt counter = %d, want 1", st.Corrupt)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt entry file was not deleted")
	}
	// And again: now a plain miss, not another corruption.
	if _, ok := s.Get(k); ok {
		t.Fatal("deleted entry served as a hit")
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("corrupt counter moved to %d on a plain miss", st.Corrupt)
	}
}

func TestStoreDeletedFileIsSilentMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k := testKey(7)
	if err := s.Put(k, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, k.shardDir(), k.filename())); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("vanished file served as a hit")
	}
	if st := s.Stats(); st.Entries != 0 {
		t.Fatalf("stale entry meta survived: %+v", st)
	}
}

func TestStoreEviction(t *testing.T) {
	// Each entry is ~entryHeader+payload+trailer bytes; budget for ~3.
	payload := make([]byte, 100)
	entrySize := int64(len(EncodeEntry(testKey(0), payload)))
	s, err := Open(t.TempDir(), 3*entrySize)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := byte(0); i < 8; i++ {
		if err := s.Put(testKey(i), payload); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Entries != 3 {
		t.Fatalf("entries = %d, want 3 after eviction", st.Entries)
	}
	if st.Bytes > 3*entrySize {
		t.Fatalf("bytes %d exceed the %d budget", st.Bytes, 3*entrySize)
	}
	if st.Evictions != 5 {
		t.Fatalf("evictions = %d, want 5", st.Evictions)
	}
	// Most recent entries survive.
	for i := byte(5); i < 8; i++ {
		if _, ok := s.Get(testKey(i)); !ok {
			t.Fatalf("recent entry %d was evicted", i)
		}
	}
}

// TestStoreConcurrentEvictionIsNotCorruption races get-or-put traffic
// over more keys than the byte budget holds, so entries are evicted
// (their files deleted) while other goroutines are reading them. A read
// that loses that race is a plain miss: nothing is damaged, so nothing
// may be counted corrupt, and the table must still name exactly the
// files on disk.
func TestStoreConcurrentEvictionIsNotCorruption(t *testing.T) {
	const (
		workers = 8
		ops     = 400
		keys    = 6
	)
	payload := make([]byte, 100)
	entrySize := int64(len(EncodeEntry(testKey(0), payload)))
	dir := t.TempDir()
	s, err := Open(dir, 3*entrySize)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := testKey(byte((w + i) % keys))
				if _, ok := s.Get(k); ok {
					continue
				}
				if err := s.Put(k, payload); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.Corrupt != 0 {
		t.Fatalf("%d concurrent evictions were counted as corruption", st.Corrupt)
	}
	onDisk := map[Key]int64{}
	var total int64
	shards, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range shards {
		if !d.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(dir, d.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			k, ok := parseFilename(f.Name())
			if !ok {
				continue
			}
			info, err := f.Info()
			if err != nil {
				t.Fatal(err)
			}
			onDisk[k] = info.Size()
			total += info.Size()
		}
	}
	if st.Entries != len(onDisk) {
		t.Fatalf("table holds %d entries, disk holds %d entry files", st.Entries, len(onDisk))
	}
	if st.Bytes != total {
		t.Fatalf("table accounts %d bytes, entry files hold %d", st.Bytes, total)
	}
	// Every file is indexed and every indexed key has its file: a lookup
	// hits exactly the keys on disk and finds nothing damaged.
	for i := 0; i < keys; i++ {
		k := testKey(byte(i))
		_, hit := s.Get(k)
		if _, file := onDisk[k]; hit != file {
			t.Fatalf("key %d: lookup hit = %v but entry file present = %v", i, hit, file)
		}
	}
	if st := s.Stats(); st.Corrupt != 0 {
		t.Fatalf("an indexed entry had no intact file: corrupt = %d", st.Corrupt)
	}
}

func TestTieredPromotion(t *testing.T) {
	dir := t.TempDir()
	disk, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	tc := NewTiered(disk, 8)
	k := testKey(9)
	if err := tc.Put(k, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, tier, ok := tc.Get(k); !ok || tier != TierMem {
		t.Fatalf("first get tier = %q, want mem", tier)
	}
	tc.Close()

	// A fresh Tiered over the same dir: first hit from disk, second from
	// the promoted mem entry.
	disk2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	tc2 := NewTiered(disk2, 8)
	defer tc2.Close()
	if _, tier, ok := tc2.Get(k); !ok || tier != TierDisk {
		t.Fatalf("warm-boot get tier = %q, want disk", tier)
	}
	if _, tier, ok := tc2.Get(k); !ok || tier != TierMem {
		t.Fatalf("post-promotion get tier = %q, want mem", tier)
	}
	st := tc2.Stats()
	if st.DiskHits != 1 || st.MemHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTieredMemoryOnly(t *testing.T) {
	tc := NewTiered(nil, 2)
	defer tc.Close()
	for i := byte(0); i < 4; i++ {
		if err := tc.Put(testKey(i), []byte{i}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ok := tc.Get(testKey(0)); ok {
		t.Fatal("mem LRU did not evict the oldest entry")
	}
	if _, tier, ok := tc.Get(testKey(3)); !ok || tier != TierMem {
		t.Fatalf("recent entry tier = %q, %v", tier, ok)
	}
	if st := tc.Stats(); st.MemEntries != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// The tests below leave the directory as a Put interrupted at each step
// would, then reopen it.

// writeEntryFile puts the file of an entry in place the way Put's rename
// does, without going through a Store.
func writeEntryFile(t *testing.T, dir string, k Key, payload []byte) string {
	t.Helper()
	shard := filepath.Join(dir, k.shardDir())
	if err := os.MkdirAll(shard, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(shard, k.filename())
	if err := os.WriteFile(path, EncodeEntry(k, payload), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestStoreSkipsPutTempFile(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	kept := testKey(1)
	if err := s.Put(kept, []byte("kept")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// A Put that stopped before its rename leaves a complete temp file.
	lost := testKey(2)
	tmp := filepath.Join(dir, lost.shardDir(), "put-123456")
	if err := os.MkdirAll(filepath.Dir(tmp), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tmp, EncodeEntry(lost, []byte("lost")), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.Get(lost); ok {
		t.Fatal("the temp file of an unfinished Put was served")
	}
	if _, ok := s2.Get(kept); !ok {
		t.Fatal("finished entry lost")
	}
	st := s2.Stats()
	if want := int64(len(EncodeEntry(kept, []byte("kept")))); st.Entries != 1 || st.Bytes != want {
		t.Fatalf("stats = %+v, want 1 entry of %d bytes", st, want)
	}
	if st.Corrupt != 0 {
		t.Fatalf("corrupt = %d, want 0", st.Corrupt)
	}
}

func TestStoreIndexesEntryOfUnfinishedPut(t *testing.T) {
	payload := make([]byte, 100)
	entrySize := int64(len(EncodeEntry(testKey(0), payload)))
	dir := t.TempDir()
	s, err := Open(dir, 3*entrySize)
	if err != nil {
		t.Fatal(err)
	}
	for i := byte(0); i < 2; i++ {
		if err := s.Put(testKey(i), payload); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	// A Put that stopped after its rename: the file is intact and in
	// place, but the store that wrote it never recorded it.
	k := testKey(9)
	path := writeEntryFile(t, dir, k, payload)

	s2, err := Open(dir, 3*entrySize)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.Get(k); !ok {
		t.Fatal("intact entry file was not served after reopen")
	}
	if st := s2.Stats(); st.Entries != 3 || st.Bytes != 3*entrySize {
		t.Fatalf("stats = %+v, want 3 entries of %d bytes", st, entrySize)
	}
	for i := byte(3); i < 6; i++ {
		if err := s2.Put(testKey(i), payload); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("entry file of the unfinished Put was never evicted")
	}
	if st := s2.Stats(); st.Evictions != 3 || st.Bytes != 3*entrySize {
		t.Fatalf("stats = %+v, want 3 evictions and %d bytes", st, 3*entrySize)
	}
}

func TestStoreDamagedFileAtReopenIsDroppedOnce(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	truncated, flipped := testKey(4), testKey(5)
	for _, k := range []Key{truncated, flipped} {
		if err := s.Put(k, []byte("entry that will be damaged")); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	damage := func(k Key, f func([]byte) []byte) string {
		path := filepath.Join(dir, k.shardDir(), k.filename())
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, f(blob), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	paths := []string{
		damage(truncated, func(b []byte) []byte { return b[:len(b)-3] }),
		damage(flipped, func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b }),
	}

	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for round := 0; round < 2; round++ {
		for _, k := range []Key{truncated, flipped} {
			if _, ok := s2.Get(k); ok {
				t.Fatalf("round %d: damaged entry served", round)
			}
		}
		if st := s2.Stats(); st.Corrupt != 2 || st.Entries != 0 || st.Bytes != 0 {
			t.Fatalf("round %d: stats = %+v, want 2 corrupt and nothing left", round, st)
		}
	}
	for _, p := range paths {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("damaged file %s was not deleted", p)
		}
	}
}

func TestStoreReopenEvictsInPutOrder(t *testing.T) {
	payload := make([]byte, 100)
	entrySize := int64(len(EncodeEntry(testKey(0), payload)))
	dir := t.TempDir()
	// Put in descending key order, so name order is the reverse of put
	// order, and space the modification times so that no two are equal.
	base := time.Now().Add(-time.Hour)
	for i := 0; i < 6; i++ {
		path := writeEntryFile(t, dir, testKey(byte(5-i)), payload)
		mod := base.Add(time.Duration(i) * time.Second)
		if err := os.Chtimes(path, mod, mod); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(dir, 3*entrySize)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := byte(0); i < 6; i++ {
		_, ok := s.Get(testKey(i))
		if want := i < 3; ok != want {
			t.Fatalf("key %d: present = %v, want %v (the three last put)", i, ok, want)
		}
	}
}

func TestStoreChurnAcrossReopensLeavesOnlyEntries(t *testing.T) {
	payload := make([]byte, 100)
	entrySize := int64(len(EncodeEntry(testKey(0), payload)))
	budget := 5 * entrySize
	dir := t.TempDir()
	for reopen := 0; reopen < 4; reopen++ {
		s, err := Open(dir, budget)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 60; i++ {
			k := testKey(byte(reopen*37 + i))
			if _, ok := s.Get(k); !ok {
				if err := s.Put(k, payload); err != nil {
					t.Fatal(err)
				}
			}
		}
		if st := s.Stats(); st.Bytes > budget+entrySize {
			t.Fatalf("reopen %d: %d bytes over a %d budget", reopen, st.Bytes, budget)
		}
		s.Close()
	}

	s, err := Open(dir, budget)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st := s.Stats()
	if st.Bytes > budget+entrySize {
		t.Fatalf("%d bytes over a %d budget", st.Bytes, budget)
	}
	top, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files int
	var total int64
	for _, d := range top {
		if !d.IsDir() {
			t.Fatalf("%s is not a shard directory", d.Name())
		}
		entries, err := os.ReadDir(filepath.Join(dir, d.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range entries {
			k, ok := parseFilename(f.Name())
			if !ok || k.shardDir() != d.Name() {
				t.Fatalf("%s/%s is not an entry file", d.Name(), f.Name())
			}
			info, err := f.Info()
			if err != nil {
				t.Fatal(err)
			}
			files++
			total += info.Size()
		}
	}
	if files != st.Entries || total != st.Bytes {
		t.Fatalf("disk holds %d files of %d bytes, table %d entries of %d bytes", files, total, st.Entries, st.Bytes)
	}
}
