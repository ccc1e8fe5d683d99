package swapnet

import (
	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/obs"
)

// ATATraced is ATAWithCache wrapped in an "ata.region" span on tr (nil tr
// is exactly ATAWithCache): the span carries the region bounds up front
// and, once the pattern completes, the emitted step/cycle/gate counts.
// Pattern-cache counts live only on the cache (PatternCache.Stats): a
// cache shared across compiles cannot attribute them to one region.
func ATATraced(st *State, region arch.Region, emit EmitFunc, c *PatternCache, tr *obs.Trace, parent *obs.Span) error {
	if tr == nil {
		return ATAWithCache(st, region, emit, c)
	}
	sp := tr.StartSpan(parent, "ata.region", regionAttrs(region)...)
	var cnt Counter
	err := ATAWithCache(st, region, func(s Step) { cnt.Emit(s); emit(s) }, c)
	sp.SetAttrs(
		obs.Int("steps", cnt.Steps),
		obs.Int("cycles", cnt.Cycles),
		obs.Int("gates", cnt.Gates),
		obs.Int("fused", cnt.Fused),
		obs.Int("swaps", cnt.Swaps),
		obs.Int("cx", cnt.CX),
	)
	sp.End()
	return err
}

func regionAttrs(r arch.Region) []obs.Attr {
	if r.UsesPath {
		return []obs.Attr{obs.Bool("path", true), obs.Int("i0", r.I0), obs.Int("i1", r.I1)}
	}
	return []obs.Attr{
		obs.Int("u0", r.U0), obs.Int("u1", r.U1),
		obs.Int("p0", r.P0), obs.Int("p1", r.P1),
	}
}
