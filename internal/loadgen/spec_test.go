package loadgen

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	ataqc "github.com/ata-pattern/ataqc"
)

const sampleSpec = `{
  "name": "sample",
  "seed": 42,
  "chaos_fraction": 0.25,
  "levels": [
    {"rps": 40, "duration": "8s", "clients": 8},
    {"rps": 0, "duration": "5s"}
  ],
  "mix": [
    {"arch": "grid", "n": 9, "density": 0.5, "seed": 3, "weight": 2},
    {"arch": "heavy-hex", "n": 12, "density": 0.4, "seed": 5, "relabel": 2}
  ]
}
`

func TestParseWorkload(t *testing.T) {
	spec, err := ParseWorkload(strings.NewReader(sampleSpec))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if spec.Name != "sample" || spec.Seed != 42 || spec.ChaosFraction != 0.25 {
		t.Fatalf("scalars: %+v", spec)
	}
	wantLevels := []LevelSpec{
		{RPS: 40, Duration: Duration(8 * time.Second), Clients: 8},
		{RPS: 0, Duration: Duration(5 * time.Second)},
	}
	if !reflect.DeepEqual(spec.Levels, wantLevels) {
		t.Fatalf("levels: %+v", spec.Levels)
	}
	wantMix := []MixSpec{
		{Arch: "grid", N: 9, Density: 0.5, Seed: 3, Weight: 2},
		{Arch: "heavy-hex", N: 12, Density: 0.4, Seed: 5, Relabel: 2},
	}
	if !reflect.DeepEqual(spec.Mix, wantMix) {
		t.Fatalf("mix: %+v", spec.Mix)
	}
}

// TestWorkloadConfigs: one Config per level, each with the level's
// shape, the spec's chaos fraction and bodies, and its own derived seed.
func TestWorkloadConfigs(t *testing.T) {
	spec, err := ParseWorkload(strings.NewReader(sampleSpec))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	cfgs, err := spec.Configs("http://127.0.0.1:0")
	if err != nil {
		t.Fatalf("configs: %v", err)
	}
	if len(cfgs) != 2 {
		t.Fatalf("got %d configs, want 2", len(cfgs))
	}
	for i, c := range cfgs {
		lvl := spec.Levels[i]
		if c.RPS != lvl.RPS || c.Clients != lvl.Clients || c.Duration != time.Duration(lvl.Duration) ||
			c.ChaosFraction != 0.25 || len(c.Bodies) != 5 || c.URL != "http://127.0.0.1:0" {
			t.Fatalf("level %d: %+v", i, c)
		}
		if want := 42 + int64(i)*104729; c.Seed != want {
			t.Fatalf("level %d seed = %d, want %d", i, c.Seed, want)
		}
	}
}

// Mixes with an entry the daemon answers only with 400s: a family it does
// not know, and a custom device, whose couplings a mix entry cannot carry.
const (
	unknownArchMix = `"mix":[{"arch":"grid","n":4,"density":0.5},{"arch":"torus","n":4,"density":0.5}]`
	customArchMix  = `"mix":[{"arch":"custom","n":4,"density":0.5}]`
)

func TestParseWorkloadErrors(t *testing.T) {
	const lv, mx = `"levels":[{"rps":1}]`, `"mix":[{"arch":"grid","n":4,"density":0.5}]`
	cases := []struct {
		name, text, want string
	}{
		{"unknown top key", `{"nmae":"x",` + lv + `,` + mx + `}`, `unknown field "nmae"`},
		{"unknown section", `{"stuff":[{"a":1}],` + lv + `,` + mx + `}`, `unknown field "stuff"`},
		{"unknown level key", `{"levels":[{"rsp":4}],` + mx + `}`, `unknown field "rsp"`},
		{"unknown mix key", `{` + lv + `,"mix":[{"arch":"grid","n":4,"density":0.5,"wieght":2}]}`, `unknown field "wieght"`},
		{"trailing data", `{` + lv + `,` + mx + `} {}`, "trailing data"},
		{"trailing bracket", `{` + lv + `,` + mx + `}]`, "trailing data"},
		{"not an object", `[]`, "cannot unmarshal"},
		{"empty input", ``, "EOF"},
		{"string rps", `{"levels":[{"rps":"4"}],` + mx + `}`, "rps"},
		{"no levels", `{` + mx + `}`, "no levels"},
		{"no mix", `{` + lv + `}`, "no problem mix"},
		{"chaos fraction", `{"chaos_fraction":1.5,` + lv + `,` + mx + `}`, "chaos_fraction"},
		{"negative rps", `{"levels":[{"rps":-1}],` + mx + `}`, "levels[0].rps"},
		{"negative clients", `{"levels":[{"clients":-1}],` + mx + `}`, "levels[0].clients"},
		{"too many clients", `{"levels":[{},{"clients":5000}],` + mx + `}`, "levels[1].clients"},
		{"bad duration", `{"levels":[{"duration":"soon"}],` + mx + `}`, "duration"},
		{"zero duration", `{"levels":[{"duration":"0s"}],` + mx + `}`, "positive duration"},
		{"numeric duration", `{"levels":[{"duration":5}],` + mx + `}`, "duration"},
		{"missing arch", `{` + lv + `,"mix":[{"n":4,"density":0.5}]}`, "mix[0].arch"},
		{"small n", `{` + lv + `,"mix":[{"arch":"grid","n":1,"density":0.5}]}`, "mix[0].n"},
		{"huge n", `{` + lv + `,"mix":[{"arch":"grid","n":100000,"density":0.5}]}`, "mix[0].n"},
		{"bad density", `{` + lv + `,"mix":[{"arch":"grid","n":4,"density":1.5}]}`, "mix[0].density"},
		{"missing density", `{` + lv + `,"mix":[{"arch":"grid","n":4}]}`, "mix[0].density"},
		{"negative weight", `{` + lv + `,"mix":[{"arch":"grid","n":4,"density":0.5,"weight":-2}]}`, "mix[0].weight"},
		{"huge weight", `{` + lv + `,"mix":[{"arch":"grid","n":4,"density":0.5,"weight":1000000}]}`, "mix[0].weight"},
		{"negative relabel", `{` + lv + `,` + `"mix":[{"arch":"grid","n":4,"density":0.5},{"arch":"grid","n":4,"density":0.5,"relabel":-1}]}`, "mix[1].relabel"},
		{"huge relabel", `{` + lv + `,"mix":[{"arch":"grid","n":4,"density":0.5,"relabel":1000}]}`, "mix[0].relabel"},
		{"unknown arch", `{` + lv + `,` + unknownArchMix + `}`, `mix[1].arch: unknown architecture family "torus"`},
		{"custom arch", `{` + lv + `,` + customArchMix + `}`, `mix[0].arch "custom" needs couplings`},
		{"device too small", `{` + lv + `,"mix":[{"arch":"mumbai","n":30,"density":0.5}]}`, "mix[0].n 30 exceeds the 27 qubits"},
	}
	for _, tc := range cases {
		_, err := ParseWorkload(strings.NewReader(tc.text))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestWorkloadBodies(t *testing.T) {
	spec, err := ParseWorkload(strings.NewReader(sampleSpec))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	bodies, err := spec.Bodies()
	if err != nil {
		t.Fatalf("bodies: %v", err)
	}
	// grid entry: weight 2, no relabels -> 2 bodies. heavy-hex entry:
	// weight 1, base + 2 relabeled variants -> 3 bodies.
	if len(bodies) != 5 {
		t.Fatalf("got %d bodies, want 5", len(bodies))
	}
	type reqShape struct {
		Arch  string   `json:"arch"`
		N     int      `json:"n"`
		Edges [][2]int `json:"edges"`
	}
	var hex []reqShape
	for _, b := range bodies {
		var r reqShape
		if err := json.Unmarshal([]byte(b), &r); err != nil {
			t.Fatalf("body is not valid JSON: %v\n%s", err, b)
		}
		if len(r.Edges) == 0 || r.N == 0 {
			t.Fatalf("degenerate body: %s", b)
		}
		if r.Arch == "heavy-hex" {
			hex = append(hex, r)
		}
	}
	if len(hex) != 3 {
		t.Fatalf("heavy-hex variants = %d, want 3", len(hex))
	}
	// The relabeled variants must be isomorphic to the base (same vertex
	// count, same degree multiset) but not byte-identical to it.
	base := hex[0]
	for i, v := range hex[1:] {
		if reflect.DeepEqual(v.Edges, base.Edges) {
			t.Fatalf("relabel variant %d is identical to the base", i+1)
		}
		if !sameDegreeMultiset(base.Edges, v.Edges, base.N) {
			t.Fatalf("relabel variant %d is not a relabeling of the base", i+1)
		}
	}
	// The base body carries the entry's problem exactly as the public
	// API draws it, so a spec names the same instance everywhere.
	if want := ataqc.RandomProblem(12, 0.4, 5).InteractionList(); !reflect.DeepEqual(base.Edges, want) {
		t.Fatalf("base edges %v, want RandomProblem's %v", base.Edges, want)
	}
}

func sameDegreeMultiset(a, b [][2]int, n int) bool {
	da, db := make([]int, n), make([]int, n)
	for _, e := range a {
		da[e[0]]++
		da[e[1]]++
	}
	for _, e := range b {
		db[e[0]]++
		db[e[1]]++
	}
	sort.Ints(da)
	sort.Ints(db)
	return reflect.DeepEqual(da, db)
}

// TestExampleWorkloadsAreValid keeps the shipped spec files decodable
// and expandable — the docs' quickstart must not rot.
func TestExampleWorkloadsAreValid(t *testing.T) {
	matches, err := filepath.Glob("../../examples/workloads/*.json")
	if err != nil || len(matches) == 0 {
		t.Fatalf("no example workload specs found: %v", err)
	}
	for _, path := range matches {
		spec, err := LoadWorkload(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if spec.Name == "" {
			t.Fatalf("%s: unnamed workload", path)
		}
		cfgs, err := spec.Configs("http://127.0.0.1:0")
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(cfgs) == 0 || len(cfgs[0].Bodies) == 0 {
			t.Fatalf("%s: expanded to no work", path)
		}
	}
	if _, err := LoadWorkload("../../examples/workloads/absent.json"); err == nil {
		t.Fatal("missing spec file accepted")
	}
}

// FuzzParseWorkload: any input decodes to a spec or an error, never a
// panic, and a spec the decoder accepts expands to load.
func FuzzParseWorkload(f *testing.F) {
	f.Add([]byte(sampleSpec))
	f.Add([]byte(`{"levels":[{}],"mix":[{"arch":"grid","n":2,"density":1}]}`))
	f.Add([]byte(`{"levels":[{"duration":"1ms"}],"mix":[{"arch":"line","n":5,"density":0.1,"relabel":3,"weight":7}]} x`))
	f.Add([]byte(`{"seed":-9,"chaos_fraction":1,"levels":null,"mix":[]}`))
	f.Add([]byte(`{"levels":[{}],` + unknownArchMix + `}`))
	f.Add([]byte(`{"levels":[{}],` + customArchMix + `}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseWorkload(bytes.NewReader(data))
		if err != nil {
			return
		}
		cfgs, err := spec.Configs("http://127.0.0.1:0")
		if err != nil {
			t.Fatalf("accepted spec %q does not expand: %v", data, err)
		}
		if len(cfgs) != len(spec.Levels) || len(cfgs[0].Bodies) == 0 {
			t.Fatalf("accepted spec %q expands to no work", data)
		}
	})
}
