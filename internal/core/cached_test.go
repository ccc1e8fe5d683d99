package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/cachestore"
	"github.com/ata-pattern/ataqc/internal/graph"
	"github.com/ata-pattern/ataqc/internal/noise"
)

// cachedDiffArchs mirrors the greedy differential suite's architecture
// axis: degenerate line, dense grid, sparse heavy-hex.
func cachedDiffArchs() []*arch.Arch {
	return []*arch.Arch{arch.Line(16), arch.Grid(4, 5), arch.HeavyHex(2, 8)}
}

func cachedLattice(rows, cols int) *graph.Graph {
	g := graph.New(rows * cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := r*cols + c
			if c+1 < cols {
				g.AddEdge(v, v+1)
			}
			if r+1 < rows {
				g.AddEdge(v, v+cols)
			}
		}
	}
	return g
}

func cachedDiffProblem(family string, a *arch.Arch, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	n := a.N()
	if n > 16 {
		n = 16
	}
	switch family {
	case "er-0.2":
		return graph.GnpConnected(n, 0.2, rng)
	case "er-0.5":
		return graph.GnpConnected(n, 0.5, rng)
	case "er-0.8":
		return graph.GnpConnected(n, 0.8, rng)
	case "regular-3":
		if n%2 == 1 {
			n--
		}
		return graph.MustRandomRegular(n, 3, rng)
	case "lattice":
		rows := 2 + int(seed%2)
		cols := n / rows
		if cols < 2 {
			cols = 2
		}
		return cachedLattice(rows, cols)
	}
	panic("unknown family " + family)
}

func cachedDiffOptions(a *arch.Arch, seed int64) Options {
	opts := Options{Workers: 1}
	switch seed % 4 {
	case 1:
		opts.Noise = noise.Synthetic(a, seed)
	case 2:
		opts.CrosstalkAware = true
	case 3:
		opts.Noise = noise.Synthetic(a, seed)
		opts.CrosstalkAware = true
	}
	if seed%3 == 1 {
		opts.Angle = 0.37
	}
	return opts
}

// assertSameResult fails unless got is byte-identical to want in every
// output field a caller can act on (gates, mappings, provenance).
func assertSameResult(t *testing.T, name, phase string, want, got *Result) {
	t.Helper()
	if len(got.Circuit.Gates) != len(want.Circuit.Gates) {
		t.Fatalf("%s %s: gate count %d != %d", name, phase, len(got.Circuit.Gates), len(want.Circuit.Gates))
	}
	for i := range want.Circuit.Gates {
		if got.Circuit.Gates[i] != want.Circuit.Gates[i] {
			t.Fatalf("%s %s: gate %d differs:\n  want %+v\n  got  %+v",
				name, phase, i, want.Circuit.Gates[i], got.Circuit.Gates[i])
		}
	}
	for l := range want.Initial {
		if got.Initial[l] != want.Initial[l] {
			t.Fatalf("%s %s: initial[%d] = %d != %d", name, phase, l, got.Initial[l], want.Initial[l])
		}
	}
	for l := range want.Final {
		if got.Final[l] != want.Final[l] {
			t.Fatalf("%s %s: final[%d] = %d != %d", name, phase, l, got.Final[l], want.Final[l])
		}
	}
	if got.Source != want.Source {
		t.Fatalf("%s %s: source %q != %q", name, phase, got.Source, want.Source)
	}
	if got.Stats.SelectedPrefix != want.Stats.SelectedPrefix {
		t.Fatalf("%s %s: selected prefix %d != %d", name, phase, got.Stats.SelectedPrefix, want.Stats.SelectedPrefix)
	}
}

// TestCompileCachedDifferentialSuite proves the cache's byte-identity
// contract over the full 3 archs x 5 families x 7 seeds = 105 instance
// matrix (the same matrix the greedy engine rewrite was gated on):
//
//  1. the cold CompileCached (miss, shared warm pattern cache) is
//     byte-identical to a plain CompileContext;
//  2. a resubmission is served from the memory tier, byte-identical;
//  3. after a simulated daemon restart (fresh Tiered over the same
//     directory, empty memory tier) it is served from the disk tier,
//     still byte-identical.
func TestCompileCachedDifferentialSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("full differential matrix is not -short material")
	}
	dir := t.TempDir()
	store, err := cachestore.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache(cachestore.NewTiered(store, 0))

	type inst struct {
		name string
		a    *arch.Arch
		p    *graph.Graph
		opts Options
		want *Result
	}
	var instances []inst
	families := []string{"er-0.2", "er-0.5", "er-0.8", "regular-3", "lattice"}
	for _, a := range cachedDiffArchs() {
		for _, fam := range families {
			for seed := int64(1); seed <= 7; seed++ {
				instances = append(instances, inst{
					name: a.Name + "/" + fam + "/" + string(rune('0'+seed)),
					a:    a,
					p:    cachedDiffProblem(fam, a, seed),
					opts: cachedDiffOptions(a, seed),
				})
			}
		}
	}
	if len(instances) != 105 {
		t.Fatalf("matrix holds %d instances, want 105", len(instances))
	}

	ctx := context.Background()
	// A few instances legitimately collide (the lattice family is
	// deterministic in (rows, cols), so seeds with equal options repeat),
	// which is itself canonical-dedup behaviour worth pinning: the
	// expected cold tier is derived from the actual cache key.
	seen := make(map[cachestore.Key]bool)
	for i := range instances {
		in := &instances[i]
		ref, err := CompileContext(ctx, in.a, in.p, in.opts)
		if err != nil {
			t.Fatalf("%s: uncached: %v", in.name, err)
		}
		in.want = ref

		keyOpts := in.opts
		keyOpts.applyDefaults()
		key := cachestore.ResultKey(in.a.Fingerprint(), graph.CanonicalHash(in.p), optionsDigest(in.a, &keyOpts))
		wantTier := ""
		if seen[key] {
			wantTier = string(cachestore.TierMem)
		}
		seen[key] = true

		cold, err := CompileCached(ctx, in.a, in.p, in.opts, cache)
		if err != nil {
			t.Fatalf("%s: cold cached: %v", in.name, err)
		}
		if cold.Stats.CacheTier != wantTier {
			t.Fatalf("%s: cold compile reported tier %q, want %q", in.name, cold.Stats.CacheTier, wantTier)
		}
		assertSameResult(t, in.name, "cold", ref, cold)

		warm, err := CompileCached(ctx, in.a, in.p, in.opts, cache)
		if err != nil {
			t.Fatalf("%s: warm cached: %v", in.name, err)
		}
		if warm.Stats.CacheTier != string(cachestore.TierMem) {
			t.Fatalf("%s: warm tier = %q, want mem", in.name, warm.Stats.CacheTier)
		}
		assertSameResult(t, in.name, "warm", ref, warm)
	}
	if s := cache.Stats(); s.Corrupt != 0 || s.Result.Disk.Corrupt != 0 {
		t.Fatalf("matrix run counted corruption: %+v", s)
	}
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulated restart: fresh store over the same directory, cold memory.
	store2, err := cachestore.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cache2 := NewCache(cachestore.NewTiered(store2, 0))
	defer cache2.Close()
	promoted := make(map[cachestore.Key]bool)
	for i := range instances {
		in := &instances[i]
		keyOpts := in.opts
		keyOpts.applyDefaults()
		key := cachestore.ResultKey(in.a.Fingerprint(), graph.CanonicalHash(in.p), optionsDigest(in.a, &keyOpts))
		wantTier := string(cachestore.TierDisk)
		if promoted[key] {
			// A duplicate instance's first post-restart hit promoted the
			// entry into the memory tier.
			wantTier = string(cachestore.TierMem)
		}
		promoted[key] = true
		res, err := CompileCached(ctx, in.a, in.p, in.opts, cache2)
		if err != nil {
			t.Fatalf("%s: post-restart: %v", in.name, err)
		}
		if res.Stats.CacheTier != wantTier {
			t.Fatalf("%s: post-restart tier = %q, want %q", in.name, res.Stats.CacheTier, wantTier)
		}
		assertSameResult(t, in.name, "disk", in.want, res)
	}
}

// TestCompileCachedWarmRestart gates the persistent cache end to end on
// eight daemon-default requests across every architecture family: a cold
// pass over an empty directory, a simulated daemon restart (fresh memory
// tier over the same directory), a warm replay, then relabeled
// resubmissions that only canonical hashing can serve. Every warm result
// must be byte-identical to its cold compile, no entry may be corrupt, at
// least 80% of warm requests must come off disk, every relabeled request
// must hit, and the warm p99 must be at least 2x better than the cold p99.
// With eight requests per phase the nearest-rank p99 is the slowest one.
//
// A single request's latency swings with the machine's other load, so each
// instance's cold and warm latency is its fastest of reps: the cold pass
// runs over reps fresh directories, and the warm pass reopens each of them
// once.
func TestCompileCachedWarmRestart(t *testing.T) {
	const reps = 3
	type inst struct {
		name string
		a    *arch.Arch
		p    *graph.Graph
	}
	er := func(n int, density float64, seed int64) *graph.Graph {
		return graph.GnpConnected(n, density, rand.New(rand.NewSource(seed)))
	}
	instances := []inst{
		{"line-12/er-0.50", arch.Line(12), er(12, 0.50, 11)},
		{"grid-16/er-0.40", arch.GridN(16), er(16, 0.40, 12)},
		{"grid-16/er-0.55", arch.GridN(16), er(16, 0.55, 13)},
		{"grid-25/er-0.35", arch.GridN(25), er(25, 0.35, 14)},
		{"sycamore-16/er-0.40", arch.SycamoreN(16), er(16, 0.40, 15)},
		{"heavyhex-20/er-0.30", arch.HeavyHexN(20), er(18, 0.30, 16)},
		{"hexagon-18/er-0.35", arch.HexagonN(18), er(16, 0.35, 17)},
		{"mumbai/er-0.30", arch.Mumbai(), er(24, 0.30, 18)},
	}
	ctx := context.Background()
	opts := Options{Workers: 1} // the daemon's default request path
	open := func(dir string) *Cache {
		store, err := cachestore.Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		return NewCache(cachestore.NewTiered(store, 0))
	}
	// run sends one request per instance (relabeled by perm if non-nil)
	// and returns the results and each request's latency.
	run := func(cache *Cache, phase string, perm func(n int) []int) ([]*Result, []time.Duration) {
		out := make([]*Result, len(instances))
		lat := make([]time.Duration, len(instances))
		runtime.GC() // no phase pays for the previous phase's garbage
		for i, in := range instances {
			p := in.p
			if perm != nil {
				p = graph.Relabel(p, perm(p.N()))
			}
			t0 := time.Now()
			res, err := CompileCached(ctx, in.a, p, opts, cache)
			lat[i] = time.Since(t0)
			if err != nil {
				t.Fatalf("%s %s: %v", in.name, phase, err)
			}
			out[i] = res
		}
		return out, lat
	}
	// p99 is the nearest-rank p99 of eight latencies, the slowest, and the
	// instance that took it.
	p99 := func(lat []time.Duration) (time.Duration, string) {
		slow := 0
		for i, d := range lat {
			if d > lat[slow] {
				slow = i
			}
		}
		return lat[slow], instances[slow].name
	}
	assertNoCorruption := func(cache *Cache) {
		if s := cache.Stats(); s.Corrupt+s.Result.Disk.Corrupt != 0 {
			t.Fatalf("cache counted corrupt entries: %+v", s)
		}
	}

	// fastest keeps each instance's fastest latency in best.
	fastest := func(best, lat []time.Duration) []time.Duration {
		if best == nil {
			return lat
		}
		for i, d := range lat {
			best[i] = min(best[i], d)
		}
		return best
	}

	var dirs []string
	var coldRes []*Result
	var coldLat []time.Duration
	for r := 0; r < reps; r++ {
		dirs = append(dirs, t.TempDir())
		cold := open(dirs[r])
		res, lat := run(cold, "cold", nil)
		for i := range res {
			if res[i].Stats.CacheTier != "" {
				t.Fatalf("%s cold: served from tier %q of an empty directory", instances[i].name, res[i].Stats.CacheTier)
			}
			if coldRes != nil {
				assertSameResult(t, instances[i].name, "cold repeat", coldRes[i], res[i])
			}
		}
		assertNoCorruption(cold)
		if err := cold.Close(); err != nil {
			t.Fatal(err)
		}
		coldRes, coldLat = res, fastest(coldLat, lat)
	}

	var warm *Cache
	var warmRes []*Result
	var warmLat []time.Duration
	diskHits := 0
	for r, dir := range dirs {
		if warm != nil {
			if err := warm.Close(); err != nil {
				t.Fatal(err)
			}
		}
		warm = open(dir)
		res, lat := run(warm, "warm", nil)
		for i := range res {
			assertSameResult(t, instances[i].name, "warm", coldRes[i], res[i])
			if res[i].Stats.CacheTier == string(cachestore.TierDisk) {
				diskHits++
			}
		}
		if r < reps-1 {
			assertNoCorruption(warm)
		}
		warmRes, warmLat = res, fastest(warmLat, lat)
	}
	defer warm.Close()
	rng := rand.New(rand.NewSource(7))
	isoRes, isoLat := run(warm, "isomorphic", rng.Perm)
	isoHits := 0
	for _, res := range isoRes {
		if res.Stats.CacheTier != "" {
			isoHits++
		}
	}
	assertNoCorruption(warm)

	// Every failure below lists each instance's latency and cache tier per
	// phase, so it names the request that was slow or missed.
	var per strings.Builder
	for i, in := range instances {
		fmt.Fprintf(&per, "\n  %-20s cold %9v  warm %9v tier %-5q  isomorphic %9v tier %q",
			in.name, coldLat[i], warmLat[i], warmRes[i].Stats.CacheTier, isoLat[i], isoRes[i].Stats.CacheTier)
	}
	coldP99, coldSlow := p99(coldLat)
	warmP99, warmSlow := p99(warmLat)
	diskRate := float64(diskHits) / float64(reps*len(instances))
	isoRate := float64(isoHits) / float64(len(instances))
	speedup := float64(coldP99) / float64(warmP99)
	t.Logf("cold p99 %v (%s), warm p99 %v (%s), %.1fx; disk hit rate %.2f, isomorphic hit rate %.2f",
		coldP99, coldSlow, warmP99, warmSlow, speedup, diskRate, isoRate)
	if diskRate < 0.8 {
		t.Fatalf("disk hit rate %.2f under the 0.80 floor:%s", diskRate, per.String())
	}
	if isoRate < 1 {
		t.Fatalf("isomorphic hit rate %.2f, want 1.00: canonical hashing is leaking entries:%s", isoRate, per.String())
	}
	if speedup < 2 {
		t.Fatalf("warm p99 speedup %.2fx under the 2x floor (cold %v on %s, warm %v on %s):%s",
			speedup, coldP99, coldSlow, warmP99, warmSlow, per.String())
	}
}

// TestCompileCachedIsomorphicHit: a relabeled resubmission of a cached
// problem must hit (canonical hashing) and the served circuit must be
// valid for the NEW labeling — rehydrate strict-verifies against the
// requesting problem, so a successful hit is itself the proof.
func TestCompileCachedIsomorphicHit(t *testing.T) {
	store, err := cachestore.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache(cachestore.NewTiered(store, 0))
	defer cache.Close()

	a := arch.Grid(4, 5)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 5; trial++ {
		p := graph.GnpConnected(12, 0.5, rng)
		opts := Options{Workers: 1}
		if _, err := CompileCached(ctx, a, p, opts, cache); err != nil {
			t.Fatalf("trial %d: seed compile: %v", trial, err)
		}
		perm := rng.Perm(p.N())
		q := graph.Relabel(p, perm)
		res, err := CompileCached(ctx, a, q, opts, cache)
		if err != nil {
			t.Fatalf("trial %d: relabeled compile: %v", trial, err)
		}
		if res.Stats.CacheTier != string(cachestore.TierMem) {
			t.Fatalf("trial %d: relabeled submission missed (tier %q)", trial, res.Stats.CacheTier)
		}
	}
	if s := cache.Stats(); s.Corrupt != 0 {
		t.Fatalf("isomorphic hits flagged corruption: %+v", s)
	}
}

// TestCompileCachedKeyDiscrimination: options that change the output must
// change the key; bypass conditions must skip the cache entirely.
func TestCompileCachedKeyDiscrimination(t *testing.T) {
	store, err := cachestore.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache(cachestore.NewTiered(store, 0))
	defer cache.Close()

	a := arch.Line(12)
	p := graph.GnpConnected(10, 0.4, rand.New(rand.NewSource(5)))
	ctx := context.Background()
	base := Options{Workers: 1}
	if _, err := CompileCached(ctx, a, p, base, cache); err != nil {
		t.Fatal(err)
	}

	// Semantic option changes miss.
	for _, opts := range []Options{
		{Workers: 1, Angle: 0.37},
		{Workers: 1, Alpha: 0.9},
		{Workers: 1, Mode: ModeATA},
		{Workers: 1, CrosstalkAware: true},
		{Workers: 1, Noise: noise.Uniform(a, 1e-2, 1e-4, 1e-2, 1e-5)},
	} {
		res, err := CompileCached(ctx, a, p, opts, cache)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if res.Stats.CacheTier != "" {
			t.Fatalf("options %+v were served the base entry (tier %q)", opts, res.Stats.CacheTier)
		}
	}

	// Budget/observability knobs share the base entry.
	for _, opts := range []Options{
		{Workers: 1, MaxNodes: 1 << 30},
		{Workers: 1, Verify: true},
	} {
		res, err := CompileCached(ctx, a, p, opts, cache)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if res.Stats.CacheTier != string(cachestore.TierMem) {
			t.Fatalf("options %+v missed (tier %q), want shared entry", opts, res.Stats.CacheTier)
		}
	}

	// An explicit initial mapping bypasses the cache.
	initial := make([]int, p.N())
	for i := range initial {
		initial[i] = i
	}
	res, err := CompileCached(ctx, a, p, Options{Workers: 1, InitialMapping: initial}, cache)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CacheTier != "" {
		t.Fatalf("initial-mapping request touched the cache (tier %q)", res.Stats.CacheTier)
	}

	// A cache without a result store shares only its pattern cache: the
	// compile is fresh, and closing it is a no-op.
	none := NewCache(nil)
	res, err = CompileCached(ctx, a, p, Options{Workers: 1}, none)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CacheTier != "" {
		t.Fatalf("store-less cache reported tier %q", res.Stats.CacheTier)
	}
	if err := none.Close(); err != nil {
		t.Fatalf("store-less close: %v", err)
	}
}

// TestCompileCachedSurvivesCorruptEntry: a damaged disk entry (or a
// record failing verification) must fall through to a fresh, correct
// compile — never an error.
func TestCompileCachedSurvivesCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	store, err := cachestore.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache(cachestore.NewTiered(store, 2)) // tiny mem tier
	defer cache.Close()

	a := arch.Grid(4, 4)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(17))
	var ps []*graph.Graph
	for i := 0; i < 3; i++ {
		p := graph.GnpConnected(10, 0.5, rng)
		ps = append(ps, p)
		if _, err := CompileCached(ctx, a, p, Options{Workers: 1}, cache); err != nil {
			t.Fatal(err)
		}
	}
	// Evict mem (cap 2) then corrupt every on-disk entry, addressed the
	// way CompileCached derives its keys.
	opts := Options{Workers: 1}
	opts.applyDefaults()
	for _, p := range ps {
		_, hash := graph.CanonicalForm(p)
		k := cachestore.ResultKey(a.Fingerprint(), hash, optionsDigest(a, &opts))
		if err := store.Put(k, []byte("rotten")); err != nil {
			t.Fatal(err)
		}
	}
	// The payload now decodes as garbage: each lookup must silently fall
	// through to a fresh compile that matches an uncached one.
	for i, p := range ps {
		ref, err := CompileContext(ctx, a, p, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := CompileCached(ctx, a, p, Options{Workers: 1}, cache)
		if err != nil {
			t.Fatalf("problem %d after corruption: %v", i, err)
		}
		if res.Stats.CacheTier == string(cachestore.TierDisk) {
			t.Fatalf("problem %d served a rotten disk entry", i)
		}
		if res.Stats.CacheTier == "" {
			assertSameResult(t, "corrupt-fallback", "fresh", ref, res)
		}
	}
	if s := cache.Stats(); s.Corrupt == 0 {
		t.Fatal("no corruption was counted")
	}
}

// TestCompileCachedRelabeledCliqueHit: the complete graph is the paper's
// headline all-to-all input and the most symmetric one. A relabeled K64
// resubmission must be a memory hit served in milliseconds — canonical
// form, rehydration and strict re-verification included.
func TestCompileCachedRelabeledCliqueHit(t *testing.T) {
	cache := NewCache(cachestore.NewTiered(nil, 0))
	a := arch.GridN(64)
	p := graph.Complete(64)
	ctx := context.Background()
	if _, err := CompileCached(ctx, a, p, Options{Workers: 1}, cache); err != nil {
		t.Fatal(err)
	}
	q := graph.Relabel(p, rand.New(rand.NewSource(3)).Perm(64))
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		res, err := CompileCached(ctx, a, q, Options{Workers: 1}, cache)
		if err != nil {
			t.Fatal(err)
		}
		best = min(best, time.Since(start))
		if res.Stats.CacheTier != string(cachestore.TierMem) {
			t.Fatalf("relabeled K64 answered from tier %q, want a memory hit", res.Stats.CacheTier)
		}
	}
	if s := cache.Stats(); s.Corrupt != 0 || s.CanonGiveups != 0 {
		t.Fatalf("relabeled K64 hit: %+v", s)
	}
	if !testing.Short() && !raceEnabled && best > 10*time.Millisecond {
		t.Fatalf("relabeled K64 hit took %v, want under 10ms", best)
	}
}

// TestCompileCachedCountsCanonGiveups: a request whose context has already
// ended cannot canonicalize; the give-up is counted and keyed by the sound
// fallback certificate, so it can miss but never share a wrong entry.
func TestCompileCachedCountsCanonGiveups(t *testing.T) {
	cache := NewCache(cachestore.NewTiered(nil, 0))
	a := arch.Grid(4, 4)
	p := graph.Complete(12)
	if _, err := CompileCached(context.Background(), a, p, Options{Workers: 1}, cache); err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.CanonGiveups != 0 {
		t.Fatalf("background compile counted %d give-ups", s.CanonGiveups)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// The compile itself fails on the cancelled context; only the count
	// matters here.
	_, _ = CompileCached(ctx, a, p, Options{Workers: 1}, cache)
	if s := cache.Stats(); s.CanonGiveups != 1 || s.Corrupt != 0 {
		t.Fatalf("cancelled compile: stats %+v, want one give-up and no corruption", s)
	}
}

// BenchmarkCachedHit is one memory-tier hit on the cold-hybrid evaluation
// problems the warm-repeat benchmark replays: canonical form, lookup,
// rehydration into the request's frame, and strict re-verification.
func BenchmarkCachedHit(b *testing.B) {
	specs := []struct {
		a       *arch.Arch
		n       int
		density float64
		noisy   bool
	}{
		{arch.GridN(25), 25, 0.35, false},
		{arch.GridN(36), 36, 0.5, false},
		{arch.HexagonN(48), 48, 0.3, false},
		{arch.SycamoreN(49), 49, 0.3, false},
		{arch.GridN(64), 64, 0.5, false},
		{arch.HeavyHexN(64), 64, 0.3, true},
		{arch.GridN(100), 100, 0.1, false},
		{arch.HeavyHexN(100), 100, 0.05, false},
	}
	cache := NewCache(cachestore.NewTiered(nil, 0))
	type hit struct {
		a    *arch.Arch
		p    *graph.Graph
		opts Options
	}
	hits := make([]hit, len(specs))
	for i, s := range specs {
		h := hit{a: s.a, p: graph.GnpConnected(s.n, s.density, rand.New(rand.NewSource(int64(i+1)))), opts: Options{Workers: 1}}
		if s.noisy {
			h.opts.Noise = noise.Synthetic(s.a, int64(i+1))
		}
		if _, err := CompileCached(context.Background(), h.a, h.p, h.opts, cache); err != nil {
			b.Fatal(err)
		}
		hits[i] = h
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := hits[i%len(hits)]
		res, err := CompileCached(context.Background(), h.a, h.p, h.opts, cache)
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.CacheTier != string(cachestore.TierMem) {
			b.Fatalf("answered from tier %q, want a memory hit", res.Stats.CacheTier)
		}
	}
}

// TestCachedHitAllocs pins the allocation count of one warm memory hit —
// canonical form, lookup, decode, Measure and the strict verifier pass —
// on a noiseless grid and on a heavy-hex with a noise model, where
// Measure also builds the per-call coupler table. Each ceiling is the
// count measured when it was last set.
func TestCachedHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation and pool semantics skew allocation counts")
	}
	hh := arch.HeavyHexN(64)
	cases := []struct {
		name    string
		a       *arch.Arch
		p       *graph.Graph
		opts    Options
		ceiling float64
	}{
		{"grid-36/er-0.5", arch.GridN(36), graph.GnpConnected(36, 0.5, rand.New(rand.NewSource(2))), Options{Workers: 1}, 58},
		{"heavy-hex-64/er-0.3/noise", hh, graph.GnpConnected(64, 0.3, rand.New(rand.NewSource(6))),
			Options{Workers: 1, Noise: noise.Synthetic(hh, 6)}, 67},
	}
	for _, c := range cases {
		cache := NewCache(cachestore.NewTiered(nil, 0))
		ctx := context.Background()
		if _, err := CompileCached(ctx, c.a, c.p, c.opts, cache); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			res, err := CompileCached(ctx, c.a, c.p, c.opts, cache)
			if err != nil || res.Stats.CacheTier != string(cachestore.TierMem) {
				t.Fatalf("%s: not a memory hit (err %v)", c.name, err)
			}
		})
		t.Logf("%s: %.1f allocations per hit", c.name, allocs)
		if allocs > c.ceiling {
			t.Fatalf("%s: one memory hit allocates %.1f objects, ceiling %.0f", c.name, allocs, c.ceiling)
		}
	}
}

// TestCachedHitTimesVerify: a hit's Timeline carries the verification of
// the rehydrated circuit as its verify phase, and names the stored
// result's source as the winner, as a fresh compile's Timeline does.
func TestCachedHitTimesVerify(t *testing.T) {
	cache := NewCache(cachestore.NewTiered(nil, 0))
	a := arch.GridN(16)
	p := graph.GnpConnected(16, 0.4, rand.New(rand.NewSource(4)))
	ctx := context.Background()
	if _, err := CompileCached(ctx, a, p, Options{Workers: 1}, cache); err != nil {
		t.Fatal(err)
	}
	res, err := CompileCached(ctx, a, p, Options{Workers: 1}, cache)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CacheTier != string(cachestore.TierMem) {
		t.Fatalf("answered from tier %q, want a memory hit", res.Stats.CacheTier)
	}
	if len(res.Timeline.Phases) != 1 || res.Timeline.Phases[0].Name != "verify" {
		t.Fatalf("hit Timeline phases %+v, want one verify phase", res.Timeline.Phases)
	}
	if res.Timeline.Winner != res.Source {
		t.Fatalf("hit Timeline winner %q, result source %q", res.Timeline.Winner, res.Source)
	}
}
