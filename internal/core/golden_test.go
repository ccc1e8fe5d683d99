package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/circuit"
	"github.com/ata-pattern/ataqc/internal/graph"
	"github.com/ata-pattern/ataqc/internal/noise"
)

// goldenCase is one pinned hybrid compile at Workers=1.
type goldenCase struct {
	name string
	a    *arch.Arch
	p    *graph.Graph
	nm   *noise.Model
}

// goldenCases lists the pinned instances: every TestParallelDeterminism
// case plus its noise-aware case, and the eight cold-hybrid benchmark
// shapes (perfbench/specs.go) at graph seeds 1–3.
func goldenCases() []goldenCase {
	var cs []goldenCase
	const n = 16
	archs := []struct {
		name string
		a    *arch.Arch
	}{
		{"line", arch.Line(n)},
		{"grid", arch.Grid(4, 4)},
		{"heavy-hex", arch.HeavyHexN(n)},
	}
	for _, ac := range archs {
		problems := []struct {
			name string
			g    *graph.Graph
		}{
			{"er-0.1", graph.GnpConnected(n, 0.1, rand.New(rand.NewSource(41)))},
			{"er-0.5", graph.GnpConnected(n, 0.5, rand.New(rand.NewSource(42)))},
			{"er-0.9", graph.GnpConnected(n, 0.9, rand.New(rand.NewSource(43)))},
			{"regular-3", graph.MustRandomRegular(n, 3, rand.New(rand.NewSource(44)))},
		}
		for _, pc := range problems {
			cs = append(cs, goldenCase{name: ac.name + "/" + pc.name, a: ac.a, p: pc.g})
		}
	}
	g44 := arch.Grid(4, 4)
	cs = append(cs, goldenCase{
		name: "grid/er-0.5/noise",
		a:    g44,
		p:    graph.GnpConnected(16, 0.5, rand.New(rand.NewSource(45))),
		nm:   noise.Synthetic(g44, 42),
	})

	cold := []struct {
		family  string
		n       int
		density float64
		noise   bool
	}{
		{"grid", 25, 0.35, false},
		{"grid", 36, 0.5, false},
		{"hexagon", 48, 0.3, false},
		{"sycamore", 49, 0.3, false},
		{"grid", 64, 0.5, false},
		{"heavy-hex", 64, 0.3, true},
		{"grid", 100, 0.1, false},
		{"heavy-hex", 100, 0.05, false},
	}
	for _, s := range cold {
		for seed := int64(1); seed <= 3; seed++ {
			var a *arch.Arch
			switch s.family {
			case "grid":
				a = arch.GridN(s.n)
			case "hexagon":
				a = arch.HexagonN(s.n)
			case "sycamore":
				a = arch.SycamoreN(s.n)
			case "heavy-hex":
				a = arch.HeavyHexN(s.n)
			}
			c := goldenCase{
				name: fmt.Sprintf("%s-%d/er-%g/seed-%d", s.family, s.n, s.density, seed),
				a:    a,
				p:    graph.GnpConnected(s.n, s.density, rand.New(rand.NewSource(seed))),
			}
			if s.noise {
				c.nm = noise.Synthetic(a, seed)
			}
			cs = append(cs, c)
		}
	}
	return cs
}

// goldenPin is what a Workers=1 hybrid compile must reproduce.
type goldenPin struct {
	qasmSHA        string
	source         string
	selectedPrefix int
	checkpoints    int
	predictions    int
	workUnits      int64
}

// pinOf summarises a result into its goldenPin.
func pinOf(t *testing.T, res *Result) goldenPin {
	t.Helper()
	sum := sha256.Sum256(qasmOf(t, res))
	return goldenPin{
		qasmSHA:        hex.EncodeToString(sum[:]),
		source:         res.Source,
		selectedPrefix: res.Stats.SelectedPrefix,
		checkpoints:    res.Stats.Checkpoints,
		predictions:    res.Stats.Predictions,
		workUnits:      res.Stats.WorkUnits,
	}
}

// goldenPins holds the values the uncached serial prediction loop produced
// for every goldenCases instance. The pool engine with the pattern cache
// must reproduce them exactly at Workers=1. The workUnits column was
// re-pinned when prediction began cutting lost checkpoints: a cut
// checkpoint charges only the pattern cycles it simulated, and nothing
// else changed.
var goldenPins = map[string]goldenPin{
	"line/er-0.1":                  {"46a9d85c1f6ef12be6af2c3398fff5b141b91ee310048dd178caa114e25ecb7c", "greedy", -1, 8, 8, 37},
	"line/er-0.5":                  {"9a0cf0999b79e346d6ae4e7679cd9be882606c9d5b60257dc081e355c4230988", "ata", 0, 24, 24, 259},
	"line/er-0.9":                  {"9021a4f658881097606a49179afd480b1bcf3f3ecdb7559bc77e1ab8bd31baee", "ata", 0, 21, 21, 226},
	"line/regular-3":               {"353f92366568bb633dc289f8219ab0c4f9b5d055cae96a0f32c7e83d67e2f782", "greedy", -1, 11, 11, 70},
	"grid/er-0.1":                  {"f57832f31dbc1ca5a13560c341f9e3b44136f784e10b6812639d0d8a46be7328", "greedy", -1, 5, 5, 21},
	"grid/er-0.5":                  {"c1bb43fe3449279fb86a7fa4488d80d5d3794b662c64bc56e4c348f7eb4753a3", "greedy", -1, 15, 15, 136},
	"grid/er-0.9":                  {"4ab99061e44408ba9775bb65ba27dd208df036becde4f270f0998de93e566384", "ata", 0, 25, 25, 297},
	"grid/regular-3":               {"a67cf9697f85a7dc4a20755aa73b4f8d46fb32a2b76b9241221a06756cd33461", "greedy", -1, 7, 7, 34},
	"heavy-hex/er-0.1":             {"6e2d0dfb612ffc1692da4d06a2c1c34369e61016bf3cc0294235cf05a03b24ae", "greedy", -1, 5, 5, 17},
	"heavy-hex/er-0.5":             {"89d20b11210e765ec7f61d5de56ca9a8f34fee8c27e8021616e22a546491fcea", "greedy", -1, 25, 25, 283},
	"heavy-hex/er-0.9":             {"75546f2df690475a27fb2bfc838d781e5e5f1713db8e1b0e694f83d4b312a2bb", "greedy", -1, 34, 34, 555},
	"heavy-hex/regular-3":          {"dff2620acf189353230acc981b8702a55b33a65838e942e3e3d21db661bd931d", "greedy", -1, 9, 9, 56},
	"grid/er-0.5/noise":            {"0bd4ba1268170ab2eee1c7914052727aae0a421451870c6585bcdb9c7de508e0", "greedy", -1, 17, 17, 148},
	"grid-25/er-0.35/seed-1":       {"8f037f03e8b8893157372d39bd260702451acbd949cfd460bcaf5e8570ce59fc", "greedy", -1, 22, 22, 246},
	"grid-25/er-0.35/seed-2":       {"81076bf78fe0bb8b3f6e574bb5e50ee36dabe572ac600361e30e3147c15c1647", "greedy", -1, 24, 24, 309},
	"grid-25/er-0.35/seed-3":       {"da46c8e1c9a8a958f6cdbaebf61d52d9e10b8f2ff8c40cceb65f01e2c157ec4e", "greedy", -1, 22, 22, 278},
	"grid-36/er-0.5/seed-1":        {"a733085f1efa5d8b78afef72cb9edcf62d179db0eaf04a96ef746541cbb4154e", "greedy", -1, 44, 44, 1032},
	"grid-36/er-0.5/seed-2":        {"0bae784825e65474c636ebdac69623e6998be191ae4e45327cd51636c539c842", "greedy", -1, 45, 45, 1086},
	"grid-36/er-0.5/seed-3":        {"c5f99b5184012b5a9b0e64612859fccf7a0e165db8fad8b73cc402b2e6302e61", "greedy", -1, 46, 46, 1076},
	"hexagon-48/er-0.3/seed-1":     {"26de503ddab463c7109ce8ed0c90986f23e8b25600065ee9fc3a5ea9b19a5eac", "greedy", -1, 53, 53, 992},
	"hexagon-48/er-0.3/seed-2":     {"1b3beda8dae63543c6d61375802346c80a0c971a56c960beba17b1387d6a36f5", "greedy", -1, 60, 60, 1192},
	"hexagon-48/er-0.3/seed-3":     {"fc3090e02692dfe3ec7fbcf0023bb6d39df3d6cbb67b9caf0f9dedff63badaf5", "greedy", -1, 56, 56, 1068},
	"sycamore-49/er-0.3/seed-1":    {"0b0a4d204a80f3603574150898362972567e03f2c7f8aec11f2e9f39bb83fa6e", "greedy", -1, 55, 55, 1224},
	"sycamore-49/er-0.3/seed-2":    {"df97f8d632ba259b6e825e02f793b9c861d3d41b96aba05350bc80549ab9117e", "greedy", -1, 53, 53, 1210},
	"sycamore-49/er-0.3/seed-3":    {"96ca2201bc230fb3d1df3c7dc8d972e194196d5afd7a5630431559e3d2dd148f", "greedy", -1, 54, 54, 1219},
	"grid-64/er-0.5/seed-1":        {"e107ced38c552c41ef91123b3c141bd1d3c07d644022ce398b74de2b44150279", "ata", 0, 88, 88, 3675},
	"grid-64/er-0.5/seed-2":        {"779f050e445ba6277a0fb69df7e372b6aebd97eb45b8f3099df72bbaa7912b0c", "ata", 0, 86, 86, 3595},
	"grid-64/er-0.5/seed-3":        {"11efb484fa7c1314b121c6dc4af110f2af29a1c7aab29b4e5e7886460fa583ce", "ata", 0, 84, 84, 3465},
	"heavy-hex-64/er-0.3/seed-1":   {"77c16476b847e838629b956d065efba1b746111882fdc3ce1cffbe714f2dc466", "greedy", -1, 50, 50, 2354},
	"heavy-hex-64/er-0.3/seed-2":   {"50d7a9e9c59b64614ca29177af2e344f3150946f653d7cb93beb7552b2510bbb", "greedy", -1, 92, 92, 4360},
	"heavy-hex-64/er-0.3/seed-3":   {"757e46a44b311b34e00e6a15cf0a765624112abff3c638dfaf19eaa5d3848e0a", "greedy", -1, 54, 54, 2547},
	"grid-100/er-0.1/seed-1":       {"4bdcbba9c0f0d02799a9dc276316b7392c788a34ef99977ceebf6f5eb0bdfe05", "greedy", -1, 61, 61, 1646},
	"grid-100/er-0.1/seed-2":       {"3e207f2cb27d2c1e7c353c74a6acbb924fa974d012e536e1a10186c0d1be5039", "greedy", -1, 57, 57, 1505},
	"grid-100/er-0.1/seed-3":       {"21d71689605aea3b5a1bc700b9dbf768af4ad2178f1d8d8a01d515bbf426449d", "greedy", -1, 59, 59, 1527},
	"heavy-hex-100/er-0.05/seed-1": {"9ced4de682124b3c60d857d9a4bcda493ec051acbfb5c8eaa558744b5098f1a8", "greedy", -1, 58, 58, 1207},
	"heavy-hex-100/er-0.05/seed-2": {"eddc0866b91e6d6a227577b15b343e53f759c490d22cf7d01bb60883b7fc87e8", "greedy", -1, 56, 56, 1136},
	"heavy-hex-100/er-0.05/seed-3": {"e7f3e7653e04c0e613f9767962d2a267d279af736f2bfcd2c4a67e3c40cabf50", "greedy", -1, 67, 67, 1540},
}

// TestGoldenSerialPins pins Workers=1 hybrid compiles to the output of the
// original uncached serial prediction loop: circuit bytes, selected
// candidate, and the governance counters.
func TestGoldenSerialPins(t *testing.T) {
	cases := goldenCases()
	if len(goldenPins) != len(cases) {
		t.Fatalf("%d pins for %d cases", len(goldenPins), len(cases))
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, ok := goldenPins[c.name]
			if !ok {
				t.Fatalf("no pin for %s", c.name)
			}
			res, err := Compile(c.a, c.p, Options{Workers: 1, Noise: c.nm})
			if err != nil {
				t.Fatal(err)
			}
			if got := pinOf(t, res); got != want {
				t.Fatalf("pin mismatch:\n got  %+v\n want %+v", got, want)
			}
		})
	}
}

// materialisedQASM renders c the way WriteQASM did before it streamed:
// build the whole CX-basis circuit, then print it gate by gate.
func materialisedQASM(t *testing.T, c *circuit.Circuit) []byte {
	t.Helper()
	var b bytes.Buffer
	fmt.Fprintf(&b, "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[%d];\n", c.NQubits)
	for _, g := range c.Decompose().Gates {
		switch g.Kind {
		case circuit.GateH:
			fmt.Fprintf(&b, "h q[%d];\n", g.Q0)
		case circuit.GateRX:
			fmt.Fprintf(&b, "rx(%.12g) q[%d];\n", g.Angle, g.Q0)
		case circuit.GateRZ:
			fmt.Fprintf(&b, "rz(%.12g) q[%d];\n", g.Angle, g.Q0)
		case circuit.GateCNOT:
			fmt.Fprintf(&b, "cx q[%d],q[%d];\n", g.Q0, g.Q1)
		default:
			t.Fatalf("%v survived decomposition", g.Kind)
		}
	}
	return b.Bytes()
}

// TestGoldenQASMStreamedMatchesMaterialised: on every golden case, the
// streamed WriteQASM is byte-identical to printing the materialised
// decomposition, and the streamed metrics equal the materialised ones.
func TestGoldenQASMStreamedMatchesMaterialised(t *testing.T) {
	for _, c := range goldenCases() {
		res, err := Compile(c.a, c.p, Options{Workers: 1, Noise: c.nm})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got, want := qasmOf(t, res), materialisedQASM(t, res.Circuit); !bytes.Equal(got, want) {
			t.Fatalf("%s: streamed QASM differs from the materialised rendering", c.name)
		}
		if got, want := res.Circuit.DecomposedDepth(), res.Circuit.Decompose().Depth(); got != want {
			t.Fatalf("%s: streamed depth %d, materialised %d", c.name, got, want)
		}
	}
}

// TestRefinePassesClamp: the named pass bound is the clamp it replaced.
func TestRefinePassesClamp(t *testing.T) {
	for n := 0; n <= 4096; n++ {
		want := 2048 / (n + 1)
		if want < 1 {
			want = 1
		}
		if want > 6 {
			want = 6
		}
		if got := refinePasses(n); got != want {
			t.Fatalf("refinePasses(%d) = %d, want %d", n, got, want)
		}
	}
}
