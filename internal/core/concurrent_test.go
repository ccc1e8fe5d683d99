package core

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/graph"
	"github.com/ata-pattern/ataqc/internal/noise"
)

// TestConcurrentCompilesShareArchAndNoise proves the compiler treats the
// architecture and the noise model as read-only: many simultaneous
// CompileContext calls share one *arch.Arch (including its lazily-built
// distance cache, which the fan-out builds: Distances computes it under a
// sync.Once) and one *noise.Model. Run under -race (CI does) this fails on
// any hidden mutation.
func TestConcurrentCompilesShareArchAndNoise(t *testing.T) {
	a := arch.GridN(36)
	nm := noise.Synthetic(a, 42)

	modes := []Mode{ModeHybrid, ModeGreedy, ModeATA}
	const workers = 12
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			p := graph.GnpConnected(36, 0.3, rng)
			opts := Options{Mode: modes[w%len(modes)], Noise: nm, Verify: true}
			if w%4 == 0 {
				// Mix governed compiles in: budget bookkeeping is
				// per-compilation state and must not leak across calls.
				opts.Deadline = 50 * time.Millisecond
			}
			if _, err := CompileContext(context.Background(), a, p, opts); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent compile failed: %v", err)
	}
}
