package loadgen

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"time"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/graph"
	"github.com/ata-pattern/ataqc/internal/serve"
)

// WorkloadSpec is a declarative bench workload, decoded from JSON by
// ParseWorkload: the load levels to sweep and the problem mix to draw
// request bodies from. It is the only way to describe load:
// cmd/ataqc-bench's -workload flag runs one, and `ataqc warm` precompiles
// its mix. examples/workloads/ holds the shipped specs.
type WorkloadSpec struct {
	// Name labels the report.
	Name string `json:"name"`
	// Seed drives body generation, sampling, and backoff jitter.
	Seed int64 `json:"seed"`
	// ChaosFraction is the hostile-client probability per slot.
	ChaosFraction float64 `json:"chaos_fraction"`
	// Levels are swept in order.
	Levels []LevelSpec `json:"levels"`
	// Mix is the weighted problem pool request bodies are sampled from.
	Mix []MixSpec `json:"mix"`
}

// LevelSpec is one load level of a workload.
type LevelSpec struct {
	// RPS is the target aggregate rate (0 = closed loop).
	RPS float64 `json:"rps"`
	// Duration bounds the level (absent = loadgen default).
	Duration Duration `json:"duration"`
	// Clients is the concurrent client count (0 = loadgen default).
	Clients int `json:"clients"`
}

// Duration is a time.Duration that JSON spells as a Go duration string
// ("8s", "1m30s").
type Duration time.Duration

// UnmarshalJSON accepts a positive Go duration string.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("duration %s is not a duration string such as \"5s\"", b)
	}
	v, err := time.ParseDuration(s)
	if err != nil || v <= 0 {
		return fmt.Errorf("duration %q is not a positive duration", s)
	}
	*d = Duration(v)
	return nil
}

// MixSpec is one weighted entry of the problem mix.
type MixSpec struct {
	// Arch names the target architecture family (as in CompileRequest).
	Arch string `json:"arch"`
	// N is the problem size in qubits.
	N int `json:"n"`
	// Density is the Erdős–Rényi edge density.
	Density float64 `json:"density"`
	// Seed fixes the problem instance (same arch/n/density/seed = same
	// problem — the lever for building repeat-heavy, cache-friendly load).
	Seed int64 `json:"seed"`
	// Weight is the entry's sampling multiplicity (0 = 1).
	Weight int `json:"weight"`
	// Relabel adds this many isomorphic variants (vertex-relabeled copies
	// of the same problem). They exercise the compilation cache's
	// canonical hashing: each variant is a distinct request body that a
	// canonicalizing cache recognizes as the same problem.
	Relabel int `json:"relabel"`
}

// Problem builds the entry's problem: the connected Erdős–Rényi graph
// G(N, Density) drawn from Seed. Bodies and `ataqc warm` both build it
// here, so a warmed cache holds exactly the problems the bench sends.
func (m MixSpec) Problem() *graph.Graph {
	return graph.GnpConnected(m.N, m.Density, rand.New(rand.NewSource(m.Seed)))
}

// Bounds on one spec. A mix entry larger than the daemon's default qubit
// cap would only be refused; weight and relabel multiply the bodies a
// spec expands to, and clients the goroutines a level starts.
const (
	maxClients = 1024
	maxWeight  = 1000
	maxRelabel = 16
)

// LoadWorkload reads a workload spec file (see ParseWorkload).
func LoadWorkload(path string) (*WorkloadSpec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := ParseWorkload(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// ParseWorkload decodes one JSON workload spec:
//
//	{"name": "repeat-heavy", "seed": 7, "chaos_fraction": 0.1,
//	 "levels": [{"rps": 40, "duration": "8s", "clients": 8}],
//	 "mix": [{"arch": "grid", "n": 16, "density": 0.4, "seed": 3,
//	          "weight": 4, "relabel": 2}]}
//
// Unknown keys and trailing data are rejected so typos fail loudly, and
// every value is range-checked; errors name the offending field.
func ParseWorkload(r io.Reader) (*WorkloadSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s WorkloadSpec
	if err := dec.Decode(&s); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("trailing data after the workload object")
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// validate enforces every range rule of a spec.
func (s *WorkloadSpec) validate() error {
	if s.ChaosFraction < 0 || s.ChaosFraction > 1 {
		return fmt.Errorf("chaos_fraction %v is not in [0,1]", s.ChaosFraction)
	}
	if len(s.Levels) == 0 {
		return errors.New("workload has no levels")
	}
	if len(s.Mix) == 0 {
		return errors.New("workload has no problem mix")
	}
	for i, l := range s.Levels {
		if l.RPS < 0 {
			return fmt.Errorf("levels[%d].rps %v is negative", i, l.RPS)
		}
		if l.Clients < 0 || l.Clients > maxClients {
			return fmt.Errorf("levels[%d].clients %d is not in [0,%d]", i, l.Clients, maxClients)
		}
	}
	for i, m := range s.Mix {
		switch {
		case m.Arch == "":
			return fmt.Errorf("mix[%d].arch is missing", i)
		case m.N < 2 || m.N > serve.DefaultMaxQubits:
			return fmt.Errorf("mix[%d].n %d is not in [2,%d]", i, m.N, serve.DefaultMaxQubits)
		case !(m.Density > 0 && m.Density <= 1):
			return fmt.Errorf("mix[%d].density %v is not in (0,1]", i, m.Density)
		case m.Weight < 0 || m.Weight > maxWeight:
			return fmt.Errorf("mix[%d].weight %d is not in [0,%d]", i, m.Weight, maxWeight)
		case m.Relabel < 0 || m.Relabel > maxRelabel:
			return fmt.Errorf("mix[%d].relabel %d is not in [0,%d]", i, m.Relabel, maxRelabel)
		case m.Arch == "custom":
			return fmt.Errorf("mix[%d].arch \"custom\" needs couplings, which a mix entry cannot carry", i)
		}
		// The daemon builds the device the same way and refuses every
		// request it cannot build, or whose problem does not fit it.
		a, err := arch.ByFamily(m.Arch, m.N)
		if err != nil {
			return fmt.Errorf("mix[%d].arch: %v", i, err)
		}
		if a.N() < m.N {
			return fmt.Errorf("mix[%d].n %d exceeds the %d qubits of %s", i, m.N, a.N(), a.Name)
		}
	}
	return nil
}

// Bodies renders the mix into compile-request JSON bodies: each entry
// appears Weight times, and each of its Relabel isomorphic variants
// appears Weight times too. Sampling from the returned slice uniformly
// reproduces the spec's weights.
func (s *WorkloadSpec) Bodies() ([]string, error) {
	var out []string
	for i, m := range s.Mix {
		es := m.Problem().Edges()
		edges := make([][2]int, len(es))
		for j, e := range es {
			edges[j] = [2]int{e.U, e.V}
		}
		variants := [][][2]int{edges}
		rng := rand.New(rand.NewSource(s.Seed ^ m.Seed ^ int64(i)<<32))
		for v := 0; v < m.Relabel; v++ {
			perm := rng.Perm(m.N)
			rel := make([][2]int, len(edges))
			for j, e := range edges {
				u, w := perm[e[0]], perm[e[1]]
				if u > w {
					u, w = w, u
				}
				rel[j] = [2]int{u, w}
			}
			// Sort so the body is deterministic regardless of the
			// permutation drawn; the served problem is identical either way.
			sort.Slice(rel, func(a, b int) bool {
				if rel[a][0] != rel[b][0] {
					return rel[a][0] < rel[b][0]
				}
				return rel[a][1] < rel[b][1]
			})
			variants = append(variants, rel)
		}
		for _, vs := range variants {
			b, err := json.Marshal(serve.CompileRequest{Arch: m.Arch, N: m.N, Edges: vs})
			if err != nil {
				return nil, err
			}
			body := string(b)
			for w := 0; w < max(m.Weight, 1); w++ {
				out = append(out, body)
			}
		}
	}
	return out, nil
}

// Configs expands the spec into one loadgen Config per level, rooted at
// url. Level i gets a distinct derived seed so its jitter and sampling
// do not correlate with its neighbors'.
func (s *WorkloadSpec) Configs(url string) ([]Config, error) {
	bodies, err := s.Bodies()
	if err != nil {
		return nil, err
	}
	out := make([]Config, len(s.Levels))
	for i, lvl := range s.Levels {
		out[i] = Config{
			URL:           url,
			Clients:       lvl.Clients,
			RPS:           lvl.RPS,
			Duration:      time.Duration(lvl.Duration),
			ChaosFraction: s.ChaosFraction,
			Seed:          s.Seed + int64(i)*104729,
			Bodies:        bodies,
		}
	}
	return out, nil
}
