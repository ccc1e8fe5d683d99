package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"

	ataqc "github.com/ata-pattern/ataqc"
	"github.com/ata-pattern/ataqc/internal/obs"
)

// TestCompileCacheTier: a daemon with a cache answers a repeat submission
// from the memory tier, reports the tier in the response body, and lands
// hit/miss counters plus size gauges in the metrics registry.
func TestCompileCacheTier(t *testing.T) {
	cache, err := ataqc.OpenCache(t.TempDir(), 0)
	if err != nil {
		t.Fatalf("OpenCache: %v", err)
	}
	defer cache.Close()
	srv := New(Config{Workers: 2, Cache: cache})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"arch":"grid","edges":[[0,1],[1,2],[2,3],[0,3],[1,3],[0,4],[4,5],[3,5]]}`
	status, cold := post(t, ts, body)
	if status != http.StatusOK {
		t.Fatalf("cold compile status %d: %v", status, cold)
	}
	if tier, ok := cold["cacheTier"]; ok {
		t.Fatalf("cold compile carried cacheTier %v", tier)
	}
	status, warm := post(t, ts, body)
	if status != http.StatusOK {
		t.Fatalf("warm compile status %d: %v", status, warm)
	}
	if tier, _ := warm["cacheTier"].(string); tier != "mem" {
		t.Fatalf("warm cacheTier = %q, want mem", tier)
	}
	if warm["depth"] != cold["depth"] || warm["cxCount"] != cold["cxCount"] {
		t.Fatalf("cached answer diverges: cold %v warm %v", cold, warm)
	}

	snap := srv.Metrics().Snapshot()
	hitSeries := obs.Labeled("cache.hits", obs.Label{Key: "tier", Value: "mem"})
	if snap.Counters[hitSeries] != 1 {
		t.Fatalf("counter %s = %d, want 1 (all: %v)", hitSeries, snap.Counters[hitSeries], snap.Counters)
	}
	if snap.Counters["cache.misses"] != 1 {
		t.Fatalf("cache.misses = %d, want 1", snap.Counters["cache.misses"])
	}
	if snap.Gauges["cache.disk.entries"].Value != 1 || snap.Gauges["cache.disk.bytes"].Value <= 0 {
		t.Fatalf("disk gauges not synced: %v", snap.Gauges)
	}
	if snap.Gauges["cache.corrupt"].Value != 0 {
		t.Fatalf("cache.corrupt = %d, want 0", snap.Gauges["cache.corrupt"].Value)
	}
	if g, ok := snap.Gauges["cache.canon_giveups"]; !ok || g.Value != 0 {
		t.Fatalf("cache.canon_giveups = %+v (present %v), want 0", g, ok)
	}
}

// TestCompileNoCacheNoSeries: without a configured cache the response has
// no cacheTier and the registry grows no cache series.
func TestCompileNoCacheNoSeries(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, m := post(t, ts, `{"arch":"line","edges":[[0,1],[1,2]]}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %v", status, m)
	}
	if tier, ok := m["cacheTier"]; ok {
		t.Fatalf("cacheless daemon carried cacheTier %v", tier)
	}
	if _, ok := srv.Metrics().Snapshot().Counters["cache.misses"]; ok {
		t.Fatalf("cacheless daemon grew a cache.misses series")
	}
}
