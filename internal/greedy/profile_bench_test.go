package greedy

import (
	"math/rand"
	"testing"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/graph"
)

func BenchmarkPackedGrid100(b *testing.B) {
	a := arch.Grid(10, 10)
	p := graph.GnpConnected(100, 0.5, rand.New(rand.NewSource(64)))
	a.Distances()
	init := InitialMapping(a, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(a, p, init, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReferenceGrid100(b *testing.B) {
	a := arch.Grid(10, 10)
	p := graph.GnpConnected(100, 0.5, rand.New(rand.NewSource(64)))
	a.Distances()
	init := InitialMapping(a, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := referenceCompile(a, p, init, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
