package verify

import "github.com/ata-pattern/ataqc/internal/graph"

// SemaGeneral exposes the general sema engine to the external tests that
// diff it against the analyzer's dense proof.
var SemaGeneral = semaGeneral

// EdgeIndex exposes the pass's cached problem edge index to the tests
// that check it is rebuilt when the problem grows.
func (p *Pass) EdgeIndex() *graph.EdgeIndex { return p.edgeIndex() }
