package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
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
	costSHA        string
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
		costSHA:        costSHAOf(res),
	}
}

// costSHAOf hashes every checkpoint's selector outcome in Timeline order:
// its prefix, cycle, the bits of its cost, and its Scored, Cut and
// Evaluated flags.
func costSHAOf(res *Result) string {
	h := sha256.New()
	var buf [27]byte
	for _, cp := range res.Timeline.Checkpoints {
		binary.LittleEndian.PutUint64(buf[0:], uint64(cp.Prefix))
		binary.LittleEndian.PutUint64(buf[8:], uint64(cp.Cycle))
		binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(cp.Cost))
		for i, b := range []bool{cp.Scored, cp.Cut, cp.Evaluated} {
			buf[24+i] = 0
			if b {
				buf[24+i] = 1
			}
		}
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenPins holds the values the uncached serial prediction loop produced
// for every goldenCases instance. The pool engine with the pattern cache
// must reproduce them exactly at Workers=1. The workUnits column was
// re-pinned when prediction began cutting lost checkpoints: a cut
// checkpoint charges only the pattern cycles it simulated, and nothing
// else changed. The costSHA column (costSHAOf) was computed while the grid
// dual still replayed its winner's recorded steps into the sink; taking
// the winner's priced shadow instead must leave every cost bit as it was.
var goldenPins = map[string]goldenPin{
	"line/er-0.1":                  {"46a9d85c1f6ef12be6af2c3398fff5b141b91ee310048dd178caa114e25ecb7c", "greedy", -1, 8, 8, 37, "22310a130faa5e52a02d8fddd461d4303b882c79d6c4c0dc575125e29087ad69"},
	"line/er-0.5":                  {"9a0cf0999b79e346d6ae4e7679cd9be882606c9d5b60257dc081e355c4230988", "ata", 0, 24, 24, 259, "bb05172f4dd8b793a800aecf17df1def6548035d75bb480dcd16a3118b654593"},
	"line/er-0.9":                  {"9021a4f658881097606a49179afd480b1bcf3f3ecdb7559bc77e1ab8bd31baee", "ata", 0, 21, 21, 226, "8d68b5caba52a7f4ab755e1e26ce3d1b8b1a9cb5f3748244d024ea7b8f48fa5b"},
	"line/regular-3":               {"353f92366568bb633dc289f8219ab0c4f9b5d055cae96a0f32c7e83d67e2f782", "greedy", -1, 11, 11, 70, "30a8e0e4710e025eb2f7f258d777bb74d3ae30684e54cf4caedd2088f9d68e94"},
	"grid/er-0.1":                  {"f57832f31dbc1ca5a13560c341f9e3b44136f784e10b6812639d0d8a46be7328", "greedy", -1, 5, 5, 21, "e7551278c8b71e720b09e1a61053c44b7093c9d97a5d674d4885d705b1b0be51"},
	"grid/er-0.5":                  {"c1bb43fe3449279fb86a7fa4488d80d5d3794b662c64bc56e4c348f7eb4753a3", "greedy", -1, 15, 15, 136, "8ffbbea0b994dbd3508cb923d3558d3398ad6e3a34a9d4f1f815d40b117c9eef"},
	"grid/er-0.9":                  {"4ab99061e44408ba9775bb65ba27dd208df036becde4f270f0998de93e566384", "ata", 0, 25, 25, 297, "869149bdecb9745e4f036638de4fa2a9bd26f2392e758dc0e1c7cc22c9df0532"},
	"grid/regular-3":               {"a67cf9697f85a7dc4a20755aa73b4f8d46fb32a2b76b9241221a06756cd33461", "greedy", -1, 7, 7, 34, "10c7ac3daca10611c7ac09acfb5669d774fe624ce7fe32d972de998324d3291f"},
	"heavy-hex/er-0.1":             {"6e2d0dfb612ffc1692da4d06a2c1c34369e61016bf3cc0294235cf05a03b24ae", "greedy", -1, 5, 5, 17, "b61025c46650178d429b23c6a1abd7464a2f93577841299a43b5533b4e35074a"},
	"heavy-hex/er-0.5":             {"89d20b11210e765ec7f61d5de56ca9a8f34fee8c27e8021616e22a546491fcea", "greedy", -1, 25, 25, 283, "498081a5f521fc24412d0ee7c9267c7e03b91dc43f9552d82fb5c083837c1a74"},
	"heavy-hex/er-0.9":             {"75546f2df690475a27fb2bfc838d781e5e5f1713db8e1b0e694f83d4b312a2bb", "greedy", -1, 34, 34, 555, "9cd7a4b23134666f36f3e8f2e73deb9ceafb78383da76ca5e3f57501d6717d92"},
	"heavy-hex/regular-3":          {"dff2620acf189353230acc981b8702a55b33a65838e942e3e3d21db661bd931d", "greedy", -1, 9, 9, 56, "1b0fc86a061826e058f397931babd3f4b11b0f2a1ee2ec71637bda15f9cebaeb"},
	"grid/er-0.5/noise":            {"0bd4ba1268170ab2eee1c7914052727aae0a421451870c6585bcdb9c7de508e0", "greedy", -1, 17, 17, 148, "e393a26ae584a9d138e42691846b5f494f452582ecae6f737b8ba7b26a897f82"},
	"grid-25/er-0.35/seed-1":       {"8f037f03e8b8893157372d39bd260702451acbd949cfd460bcaf5e8570ce59fc", "greedy", -1, 22, 22, 246, "63144fea8506612798c4d96c8f1143b9dbe2f2badf817aac7e90008fcabdce2f"},
	"grid-25/er-0.35/seed-2":       {"81076bf78fe0bb8b3f6e574bb5e50ee36dabe572ac600361e30e3147c15c1647", "greedy", -1, 24, 24, 309, "1007aa011afb5ef2e631c6e73fe980f42c22d3f537d248de80096c0b93e52302"},
	"grid-25/er-0.35/seed-3":       {"da46c8e1c9a8a958f6cdbaebf61d52d9e10b8f2ff8c40cceb65f01e2c157ec4e", "greedy", -1, 22, 22, 278, "033af61d3a0ec4c4f1b95ad843e3a1cc186daddc0cee1ec5a621c256711a198f"},
	"grid-36/er-0.5/seed-1":        {"a733085f1efa5d8b78afef72cb9edcf62d179db0eaf04a96ef746541cbb4154e", "greedy", -1, 44, 44, 1032, "d1b652190ac666d426d6e2c507b7bf07f7b3ab188902563d8081be3c3549349f"},
	"grid-36/er-0.5/seed-2":        {"0bae784825e65474c636ebdac69623e6998be191ae4e45327cd51636c539c842", "greedy", -1, 45, 45, 1086, "20c7d225c3026c897a1375dbf57c69e09ee4b1ef51363faf8297c80f2fda1ec0"},
	"grid-36/er-0.5/seed-3":        {"c5f99b5184012b5a9b0e64612859fccf7a0e165db8fad8b73cc402b2e6302e61", "greedy", -1, 46, 46, 1076, "58fe27c3f2019bcdb681cd434a8be3c5c01c68947e5241989abaa44895352d9b"},
	"hexagon-48/er-0.3/seed-1":     {"26de503ddab463c7109ce8ed0c90986f23e8b25600065ee9fc3a5ea9b19a5eac", "greedy", -1, 53, 53, 992, "efd3d95e6c042fc9d335761dbabe6bc75ae77ffbe4e5f94116f485fe0c415405"},
	"hexagon-48/er-0.3/seed-2":     {"1b3beda8dae63543c6d61375802346c80a0c971a56c960beba17b1387d6a36f5", "greedy", -1, 60, 60, 1192, "1e27e1c85d20ca2f8a76c804d821489bfff4c9a2ff5b49af1c31e811b4c81c03"},
	"hexagon-48/er-0.3/seed-3":     {"fc3090e02692dfe3ec7fbcf0023bb6d39df3d6cbb67b9caf0f9dedff63badaf5", "greedy", -1, 56, 56, 1068, "d7946ce1f3cb8cf80fe172b19e89bee145189dacd1e5cac48626d84d10d9949c"},
	"sycamore-49/er-0.3/seed-1":    {"0b0a4d204a80f3603574150898362972567e03f2c7f8aec11f2e9f39bb83fa6e", "greedy", -1, 55, 55, 1224, "92a65dbb93aac338a35fef37c5d38628f54399947b8ad5c01fec823374ae8689"},
	"sycamore-49/er-0.3/seed-2":    {"df97f8d632ba259b6e825e02f793b9c861d3d41b96aba05350bc80549ab9117e", "greedy", -1, 53, 53, 1210, "42e820095f4c402ee3c2a85f7675a2616e118e5e63c9bf8ea85d5ad50f94edf1"},
	"sycamore-49/er-0.3/seed-3":    {"96ca2201bc230fb3d1df3c7dc8d972e194196d5afd7a5630431559e3d2dd148f", "greedy", -1, 54, 54, 1219, "157319d6acfe17235622fc73b5317e465317bbb58ff46d8aabe5247279aa3965"},
	"grid-64/er-0.5/seed-1":        {"e107ced38c552c41ef91123b3c141bd1d3c07d644022ce398b74de2b44150279", "ata", 0, 88, 88, 3675, "b1696dbdb9da0629586d72b40979e2fa192b12dea76a491543afd83aa9cc6d3c"},
	"grid-64/er-0.5/seed-2":        {"779f050e445ba6277a0fb69df7e372b6aebd97eb45b8f3099df72bbaa7912b0c", "ata", 0, 86, 86, 3595, "d831f9a5ceb1bdf746b0b13d796ea9284e90e9b881d92c8fc57c1edf218df5af"},
	"grid-64/er-0.5/seed-3":        {"11efb484fa7c1314b121c6dc4af110f2af29a1c7aab29b4e5e7886460fa583ce", "ata", 0, 84, 84, 3465, "69a52881b93cb5ea5981eb221eb0d2fd0b336d952ab581d5e2cd889b0cb5e4b3"},
	"heavy-hex-64/er-0.3/seed-1":   {"77c16476b847e838629b956d065efba1b746111882fdc3ce1cffbe714f2dc466", "greedy", -1, 50, 50, 2354, "086e299379282b73830b7e7150800e7eba10e5b20d3b0a9f4f1a81e8683a9627"},
	"heavy-hex-64/er-0.3/seed-2":   {"50d7a9e9c59b64614ca29177af2e344f3150946f653d7cb93beb7552b2510bbb", "greedy", -1, 92, 92, 4360, "4d9740e0eb33e9d25870665dd46c1b61c6ad3e69b860b654650444aefab3f5dc"},
	"heavy-hex-64/er-0.3/seed-3":   {"757e46a44b311b34e00e6a15cf0a765624112abff3c638dfaf19eaa5d3848e0a", "greedy", -1, 54, 54, 2547, "311d124d5a56eed1fb7cb7b7303a98d8f5e9a0e11f705ead59a59111788813cc"},
	"grid-100/er-0.1/seed-1":       {"4bdcbba9c0f0d02799a9dc276316b7392c788a34ef99977ceebf6f5eb0bdfe05", "greedy", -1, 61, 61, 1646, "ad137eb839ae26a6389cf40dfebd8d88ba6d9bc048c989ac1bb46cd1fc2488b8"},
	"grid-100/er-0.1/seed-2":       {"3e207f2cb27d2c1e7c353c74a6acbb924fa974d012e536e1a10186c0d1be5039", "greedy", -1, 57, 57, 1505, "e4f1e7f0dc473bd0c987a1cf52501ed2b614bc72d7307a49f793818514857e76"},
	"grid-100/er-0.1/seed-3":       {"21d71689605aea3b5a1bc700b9dbf768af4ad2178f1d8d8a01d515bbf426449d", "greedy", -1, 59, 59, 1527, "e76ca9e25cf98ded10249587c5371b9345f694ca611f6de9ac055cd75fc0ce8c"},
	"heavy-hex-100/er-0.05/seed-1": {"9ced4de682124b3c60d857d9a4bcda493ec051acbfb5c8eaa558744b5098f1a8", "greedy", -1, 58, 58, 1207, "4043b405903ac916ad59dd349cecd37590e42d2223682a048b4dfca6092d7e43"},
	"heavy-hex-100/er-0.05/seed-2": {"eddc0866b91e6d6a227577b15b343e53f759c490d22cf7d01bb60883b7fc87e8", "greedy", -1, 56, 56, 1136, "4f8765154108fab6f573e00fb990688adaf88951305b2b96b5ee2cee4c53b7ad"},
	"heavy-hex-100/er-0.05/seed-3": {"e7f3e7653e04c0e613f9767962d2a267d279af736f2bfcd2c4a67e3c40cabf50", "greedy", -1, 67, 67, 1540, "7601a5c3cce1d8c688d1ecf9defaf346cb36f761355efd4797bcb8516479215b"},
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

// TestSelectorTheorem61 states Theorem 6.1 in the selector's terms on
// every golden case at Workers=1: the pure ATA circuit (prefix 0) is a
// candidate, so a selected checkpoint costs at most as much as it. A
// selected checkpoint is scored, not cut, below the pure-greedy score 1,
// and the first entry of minimum cost among the scored ones; with none
// selected every scored cost is at least 1; and a cut entry's cost, a
// lower bound of its full cost, is at least 1.
func TestSelectorTheorem61(t *testing.T) {
	for _, c := range goldenCases() {
		res, err := Compile(c.a, c.p, Options{Workers: 1, Noise: c.nm})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		cps, sel := res.Timeline.Checkpoints, res.Stats.SelectedPrefix
		if len(cps) == 0 || cps[0].Prefix != 0 || !cps[0].Evaluated {
			t.Fatalf("%s: no evaluated prefix-0 (pure ATA) entry", c.name)
		}
		var picked *CheckpointTiming
		for i := range cps {
			cp := &cps[i]
			if cp.Cut && cp.Cost < 1 {
				t.Errorf("%s: prefix %d cut at cost %v < 1", c.name, cp.Prefix, cp.Cost)
			}
			if cp.Prefix == sel {
				picked = cp
			}
		}
		if sel == -1 {
			for _, cp := range cps {
				if cp.Scored && cp.Cost < 1 {
					t.Errorf("%s: nothing selected, but prefix %d scored %v < 1", c.name, cp.Prefix, cp.Cost)
				}
			}
			continue
		}
		if picked == nil || !picked.Scored || picked.Cut || picked.Cost >= 1 {
			t.Fatalf("%s: selected prefix %d is not a scored, uncut entry below 1: %+v", c.name, sel, picked)
		}
		for _, cp := range cps {
			if !cp.Scored {
				continue
			}
			if cp.Cost < picked.Cost || (cp.Prefix < sel && cp.Cost == picked.Cost) {
				t.Errorf("%s: prefix %d scored %v, but prefix %d was selected at %v", c.name, cp.Prefix, cp.Cost, sel, picked.Cost)
			}
		}
		if cps[0].Scored && picked.Cost > cps[0].Cost {
			t.Errorf("%s: selected cost %v above the pure ATA cost %v", c.name, picked.Cost, cps[0].Cost)
		}
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
