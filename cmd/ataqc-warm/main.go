// Command ataqc-warm precompiles a bench workload's entire problem mix
// into a persistent compilation cache (see -cache-dir on ataqcd), so a
// daemon pointed at the same directory answers those requests from disk
// on its very first request.
//
// Compiled results are the only warm state. The structured-pattern
// geometry the hybrid compiler's prediction loop uses is a cheap function
// of the architecture and region bounds, so each process derives it on
// first use: decoding a stored copy costs as much as computing it.
//
// Example:
//
//	ataqc-warm -cache-dir /var/cache/ataqc -workload examples/workloads/repeat-heavy.yaml
//	ataqcd -cache-dir /var/cache/ataqc
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"github.com/ata-pattern/ataqc/internal/bench"
	"github.com/ata-pattern/ataqc/internal/cachestore"
	"github.com/ata-pattern/ataqc/internal/core"
	"github.com/ata-pattern/ataqc/internal/graph"
	"github.com/ata-pattern/ataqc/internal/loadgen"
)

func main() {
	var (
		dir      = flag.String("cache-dir", "", "persistent compilation-cache directory to warm (required)")
		maxBytes = flag.Int64("cache-max-bytes", 0, "disk cache byte budget (0 = unbounded)")
		workload = flag.String("workload", "", "bench workload spec whose problem mix is precompiled into the result cache (required)")
	)
	flag.Parse()
	if *dir == "" || *workload == "" {
		fmt.Fprintln(os.Stderr, "ataqc-warm: -cache-dir and -workload are required")
		os.Exit(2)
	}
	if err := run(*dir, *maxBytes, *workload); err != nil {
		fmt.Fprintf(os.Stderr, "ataqc-warm: %v\n", err)
		os.Exit(1)
	}
}

func run(dir string, maxBytes int64, workload string) error {
	store, err := cachestore.Open(dir, maxBytes)
	if err != nil {
		return err
	}
	cache := core.NewCache(cachestore.NewTiered(store, 0))
	defer cache.Close()

	n, err := warmWorkload(cache, workload)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ataqc-warm: workload %d results precompiled\n", n)
	st := store.Stats()
	fmt.Fprintf(os.Stderr, "ataqc-warm: cache now holds %d entries, %d bytes\n", st.Entries, st.Bytes)
	return nil
}

// warmWorkload compiles every problem of a bench workload spec through
// the cache, so the results are on disk before the daemon sees its first
// request. Default compile options mirror the daemon's default request
// path (serial, default angle/alpha), which is what makes the cache keys
// line up.
func warmWorkload(cache *core.Cache, path string) (int, error) {
	spec, err := loadgen.LoadWorkload(path)
	if err != nil {
		return 0, err
	}
	compiled := 0
	for _, m := range spec.Mix {
		a, err := bench.ArchFor(m.Arch, m.N)
		if err != nil {
			return compiled, fmt.Errorf("mix entry %s/%d: %w", m.Arch, m.N, err)
		}
		prob := graph.GnpConnected(m.N, m.Density, rand.New(rand.NewSource(m.Seed)))
		res, err := core.CompileCached(context.Background(), a, prob, core.Options{Workers: 1}, cache)
		if err != nil {
			return compiled, fmt.Errorf("mix entry %s/%d: %w", m.Arch, m.N, err)
		}
		if res.Stats.CacheTier == "" {
			compiled++
		}
	}
	return compiled, nil
}
