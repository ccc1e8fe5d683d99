package main

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/cachestore"
	"github.com/ata-pattern/ataqc/internal/core"
	"github.com/ata-pattern/ataqc/internal/graph"
)

// TestWarmSweepPopulatesCache runs the sweeper end to end against a
// temporary cache directory and proves a fresh daemon-side cache
// actually benefits: the precompiled workload problem is answered from
// the disk tier.
func TestWarmSweepPopulatesCache(t *testing.T) {
	dir := t.TempDir()
	if err := run(dir, 0, "../../examples/workloads/repeat-heavy.yaml"); err != nil {
		t.Fatalf("run: %v", err)
	}

	store, err := cachestore.Open(dir, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	cache := core.NewCache(cachestore.NewTiered(store, 0))
	defer cache.Close()

	// The repeat-heavy spec's hot problem (grid 16, density 0.4, seed 3)
	// was precompiled; a brand-new cache over the same directory must
	// serve it from disk.
	hot := graph.GnpConnected(16, 0.4, rand.New(rand.NewSource(3)))
	res, err := core.CompileCached(context.Background(), arch.GridN(16), hot, core.Options{Workers: 1}, cache)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if res.Stats.CacheTier != string(cachestore.TierDisk) {
		t.Fatalf("hot problem served from tier %q, want disk", res.Stats.CacheTier)
	}
}

// TestWarmRejectsBadInputs: an unusable cache directory, a missing spec
// file and a mix entry naming an unknown architecture family are errors,
// not silent no-ops.
func TestWarmRejectsBadInputs(t *testing.T) {
	dir := t.TempDir()
	if err := run(dir, 0, filepath.Join(dir, "absent.yaml")); err == nil {
		t.Fatal("missing workload file accepted")
	}
	notDir := filepath.Join(dir, "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(filepath.Join(notDir, "cache"), 0, "../../examples/workloads/repeat-heavy.yaml"); err == nil {
		t.Fatal("cache directory under a regular file accepted")
	}

	spec := filepath.Join(t.TempDir(), "torus.yaml")
	body := "name: torus\nlevels:\n  - rps: 1\n    duration: 1s\n    clients: 1\nmix:\n  - arch: torus\n    n: 8\n    density: 0.5\n    seed: 1\n"
	if err := os.WriteFile(spec, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(dir, 0, spec)
	if err == nil || !strings.Contains(err.Error(), "torus") {
		t.Fatalf("unknown family: err = %v, want one naming torus", err)
	}
}
