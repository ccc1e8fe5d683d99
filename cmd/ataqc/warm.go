package main

import (
	"context"
	"flag"
	"fmt"
	"io"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/cachestore"
	"github.com/ata-pattern/ataqc/internal/core"
	"github.com/ata-pattern/ataqc/internal/loadgen"
)

// runWarm precompiles a bench workload's entire problem mix into a
// persistent compilation cache (see -cache-dir on ataqcd), so a daemon
// pointed at the same directory answers those requests from disk on its
// very first request.
//
// Compiled results are the only warm state. The structured-pattern
// geometry the hybrid compiler's prediction loop uses is a cheap function
// of the architecture and region bounds, so each process derives it on
// first use: decoding a stored copy costs as much as computing it.
//
//	ataqc warm -cache-dir /var/cache/ataqc -workload examples/workloads/repeat-heavy.json
//	ataqcd -cache-dir /var/cache/ataqc
func runWarm(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ataqc warm", flag.ContinueOnError)
	var (
		dir      = fs.String("cache-dir", "", "persistent compilation-cache directory to warm (required)")
		maxBytes = fs.Int64("cache-max-bytes", 0, "disk cache byte budget (0 = unbounded)")
		workload = fs.String("workload", "", "bench workload spec whose problem mix is precompiled into the result cache (required)")
	)
	if code, ok := parse(fs, args, stderr); !ok {
		return code
	}
	if *dir == "" || *workload == "" {
		fmt.Fprintln(stderr, "ataqc warm: -cache-dir and -workload are required")
		return 2
	}
	if err := warmCache(stderr, *dir, *maxBytes, *workload); err != nil {
		return fail(stderr, fmt.Errorf("ataqc warm: %w", err))
	}
	return 0
}

// warmCache opens the cache directory and precompiles the workload into it.
func warmCache(stderr io.Writer, dir string, maxBytes int64, workload string) error {
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
	fmt.Fprintf(stderr, "ataqc warm: workload %d results precompiled\n", n)
	st := store.Stats()
	fmt.Fprintf(stderr, "ataqc warm: cache now holds %d entries, %d bytes\n", st.Entries, st.Bytes)
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
		a, err := arch.ByFamily(m.Arch, m.N)
		if err != nil {
			return compiled, fmt.Errorf("mix entry %s/%d: %w", m.Arch, m.N, err)
		}
		res, err := core.CompileCached(context.Background(), a, m.Problem(), core.Options{Workers: 1}, cache)
		if err != nil {
			return compiled, fmt.Errorf("mix entry %s/%d: %w", m.Arch, m.N, err)
		}
		if res.Stats.CacheTier == "" {
			compiled++
		}
	}
	return compiled, nil
}
