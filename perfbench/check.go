package main

import (
	"fmt"
	"hash/fnv"
	"strings"

	ataqc "github.com/ata-pattern/ataqc"
	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/circuit"
	"github.com/ata-pattern/ataqc/internal/graph"
	"github.com/ata-pattern/ataqc/internal/verify"
)

// digest identifies a compiled answer: a timed result must repeat its
// set-up compile's digest exactly, since compilation is deterministic.
type digest struct {
	depth, cx, swaps int
	mappings         uint64 // FNV-1a of the initial then the final mapping
}

func digestOf(depth, cx, swaps int, initial, final []int) digest {
	h := fnv.New64a()
	var buf [8]byte
	for _, m := range [][]int{initial, final} {
		for _, v := range m {
			for i := range buf {
				buf[i] = byte(uint64(v) >> (8 * i))
			}
			h.Write(buf[:])
		}
		h.Write([]byte{0xff})
	}
	return digest{depth: depth, cx: cx, swaps: swaps, mappings: h.Sum64()}
}

func resultDigest(r *ataqc.Result) digest {
	return digestOf(r.Depth(), r.CXCount(), r.SwapCount(), r.InitialMapping(), r.FinalMapping())
}

// checkLint runs every verifier analyzer over a library result. It fails on
// any error-severity diagnostic and on any analyzer that skipped itself,
// since a skipped analyzer proves nothing.
func checkLint(r *ataqc.Result) error {
	diags, statuses := r.LintStatus()
	for _, d := range diags {
		if d.Severity == "error" {
			return fmt.Errorf("lint: %v", d)
		}
	}
	for _, s := range statuses {
		if s.Skipped {
			return fmt.Errorf("lint: analyzer %s skipped: %s", s.Analyzer, s.Reason)
		}
	}
	return nil
}

// checkQASM verifies a served circuit from the client's side: the QASM must
// parse, act only on couplings of the device, and implement exactly the
// requested interactions between the claimed initial and final mappings.
func checkQASM(qasm string, a *arch.Arch, g *graph.Graph, initial, final []int) error {
	c, err := circuit.ParseQASM(strings.NewReader(qasm))
	if err != nil {
		return fmt.Errorf("qasm: %w", err)
	}
	for _, m := range [][]int{initial, final} {
		if len(m) != g.N() {
			return fmt.Errorf("qasm: mapping covers %d qubits, problem has %d", len(m), g.N())
		}
		for _, p := range m {
			if p < 0 || p >= a.N() {
				return fmt.Errorf("qasm: mapping names physical qubit %d of %d", p, a.N())
			}
		}
	}
	pass := &verify.Pass{Circuit: c, Arch: a, Problem: g, Initial: initial, Final: final, Angle: 1}
	if err := verify.AsError(verify.Run(pass, verify.ArchConformance, verify.Sema)); err != nil {
		return fmt.Errorf("qasm: %w", err)
	}
	return nil
}
