package sema

import (
	"fmt"
	"math"

	"github.com/ata-pattern/ataqc/internal/graph"
)

// Tol is the default angle tolerance: term angles are sums of literal
// float64 gate parameters, so matching terms agree bit-for-bit in practice;
// the epsilon only absorbs association-order noise in merged sums.
const Tol = 1e-9

// FromGraph reads the problem's phase polynomial off its interaction
// graph: one weight-2 term per edge. A non-zero angle pins every term to
// it; angle 0 means "uniform but unknown" — Compare then requires all
// realized edge terms to share one non-zero angle instead of a specific
// value (the compiled schedule's angle is a free parameter QAOA rebinds).
func FromGraph(g *graph.Graph, angle float64) *Polynomial {
	p := newPolynomial(g.N())
	for _, e := range g.Edges() {
		t := singleton(g.N(), e.U)
		t.Xor(singleton(g.N(), e.V))
		p.add(t, angle)
	}
	return p
}

// Mismatch is one disagreement between an extracted polynomial and the
// problem polynomial.
type Mismatch struct {
	// Term renders the parity support ("(u,v)" for edges).
	Term string
	// Got/Want are the accumulated angles (Want is NaN in uniform mode
	// for spurious terms).
	Got, Want float64
	// Count is how many circuit gates contributed to the term.
	Count int
	// Msg is the human-readable finding.
	Msg string
}

// Compare proves got == want up to term reordering: every problem term
// must be realized with the right total angle, and the circuit must
// contribute nothing else (zero-parity global-phase terms and angles
// within tol of zero are ignored). When want was built with angle 0,
// realized terms must instead agree on one shared non-zero angle.
// The returned mismatches are in deterministic (sorted-key) order.
func Compare(got, want *Polynomial, tol float64) []Mismatch {
	if tol <= 0 {
		tol = Tol
	}
	var out []Mismatch
	n := want.NLogical

	// Uniform mode: elect the reference angle as the most common realized
	// angle over wanted terms (deterministically: highest count, then
	// smallest angle), so a single corrupted gate reports as the outlier
	// rather than poisoning every other term's comparison. Non-finite
	// angles do not vote: every NaN would be its own map key and compare
	// false against the running minimum, making the election depend on
	// map order; such a term is reported on its own below.
	uniform := false
	ref := math.NaN()
	//vet:ignore maprange FromGraph assigns every term the same angle, any element works
	for _, t := range want.Terms {
		if t.Angle == 0 {
			uniform = true
		}
		break
	}
	if uniform {
		votes := make(map[float64]int)
		//vet:ignore maprange vote counting is commutative, order-independent
		for k, wt := range want.Terms {
			if gt, ok := got.Terms[k]; ok && wt.Count == gt.Count && !math.IsNaN(gt.Angle) && !math.IsInf(gt.Angle, 0) {
				votes[gt.Angle]++
			}
		}
		best := -1
		//vet:ignore maprange election is (max count, min angle), order-independent
		for a, c := range votes {
			if c > best || (c == best && a < ref) {
				best, ref = c, a
			}
		}
	}

	for _, k := range want.Keys() {
		wt := want.Terms[k]
		wantAngle := wt.Angle
		if uniform {
			wantAngle = ref
		}
		gt, ok := got.Terms[k]
		if !ok {
			out = append(out, Mismatch{Term: wt.describe(n), Got: 0, Want: wantAngle,
				Msg: fmt.Sprintf("interaction term %s never contributes to the circuit's phase polynomial", wt.describe(n))})
			continue
		}
		if uniform && math.IsNaN(ref) {
			// No consensus angle could be elected (every realized term
			// disagreed with every other); report each term individually.
			out = append(out, Mismatch{Term: wt.describe(n), Got: gt.Angle, Want: math.NaN(), Count: gt.Count,
				Msg: fmt.Sprintf("term %s realized with angle %v but no consensus program angle exists", wt.describe(n), gt.Angle)})
			continue
		}
		if !(math.Abs(gt.Angle-wantAngle) <= tol) { // a NaN angle is a mismatch too
			out = append(out, Mismatch{Term: wt.describe(n), Got: gt.Angle, Want: wantAngle, Count: gt.Count,
				Msg: fmt.Sprintf("term %s accumulates angle %v from %d gate(s), program wants %v",
					wt.describe(n), gt.Angle, gt.Count, wantAngle)})
		}
		if uniform && math.Abs(wantAngle) <= tol && gt.Count > 0 && math.Abs(gt.Angle) <= tol {
			// Consensus angle elected as ~0: a diagonal layer that does
			// nothing is not a valid program realization.
			out = append(out, Mismatch{Term: wt.describe(n), Got: gt.Angle, Want: wantAngle, Count: gt.Count,
				Msg: fmt.Sprintf("term %s realized with angle ~0; the program layer is a no-op", wt.describe(n))})
		}
	}

	for _, k := range got.Keys() {
		gt := got.Terms[k]
		if k == "" {
			continue // zero parity: global phase, semantically irrelevant
		}
		if _, ok := want.Terms[k]; ok {
			continue
		}
		if math.Abs(gt.Angle) <= tol {
			continue // cancelled or zero-angle stray term
		}
		aux := false
		for _, v := range gt.Vars {
			if v >= n {
				aux = true
			}
		}
		switch {
		case aux:
			out = append(out, Mismatch{Term: gt.describe(n), Got: gt.Angle, Want: 0, Count: gt.Count,
				Msg: fmt.Sprintf("phase term %s touches unmapped-qubit state (angle %v)", gt.describe(n), gt.Angle)})
		case len(gt.Vars) == 2:
			out = append(out, Mismatch{Term: gt.describe(n), Got: gt.Angle, Want: 0, Count: gt.Count,
				Msg: fmt.Sprintf("phase term %s (angle %v) is not an interaction of the problem", gt.describe(n), gt.Angle)})
		default:
			out = append(out, Mismatch{Term: gt.describe(n), Got: gt.Angle, Want: 0, Count: gt.Count,
				Msg: fmt.Sprintf("weight-%d phase term %s (angle %v) has no program counterpart",
					len(gt.Vars), gt.describe(n), gt.Angle)})
		}
	}
	return out
}
