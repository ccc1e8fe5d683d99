package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// The machines this benchmark runs on are shared: a neighbour's load slows
// every core by up to a half for seconds at a time, which would swamp any
// regression bound on raw times. So every client also runs fixed reference
// kernels now and then, and time metrics are scaled by how fast the kernels
// ran at that moment, to what they would read on a machine where each takes
// its nominal time. The kernels share no code with the compiler, so no
// change to the compiler moves them.
//
// A neighbour slows pointer-heavy code, dense arithmetic and table scans by
// different amounts, and each workload mixes them differently. Scaling by
// the geometric mean of one kernel of each kind tracks every workload's
// slowdown to within a few percent, where any single kernel misses by up to
// a quarter.
var kernels = []struct {
	nominalUs float64 // median time on an idle 2-core VM
	run       func() int
}{
	{700, graphKernel},
	{350, arithKernel},
	{900, tableKernel},
}

const (
	// calibrateEvery is the least time between two kernel runs of a client.
	calibrateEvery = 50 * time.Millisecond
	// kernelBudget is the idle time an open-loop sender needs before its
	// next due request to run a kernel without sending late.
	kernelBudget = 3 * time.Millisecond
	// burstRounds is how many times each kernel runs around each round and
	// each set-up.
	burstRounds = 8
)

// xorshift returns a fixed pseudo-random sequence.
func xorshift(seed uint64) func() uint64 {
	s := seed
	return func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
}

// graphKernel builds a random graph's adjacency lists, runs breadth-first
// searches over it, sorts a slice and fills a map. Each kernel returns a
// value derived from all its work, so none of it can be optimized away.
func graphKernel() int {
	next := xorshift(88172645463325252)
	const n = 256
	adj := make([][]int32, n)
	for i := 0; i < 4*n; i++ {
		u, v := int32(next()%n), int32(next()%n)
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	total := 0
	for src := int32(0); src < 8; src++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		queue = append(queue[:0], src)
		for h := 0; h < len(queue); h++ {
			u := queue[h]
			for _, v := range adj[u] {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
		for _, d := range dist {
			total += int(d)
		}
	}
	xs := make([]uint64, 4096)
	for i := range xs {
		xs[i] = next()
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	m := make(map[uint64]int, 512)
	for i := 0; i < 2048; i++ {
		m[next()%2048] += i
	}
	return total + len(m) + int(xs[7]&1)
}

// arithKernel runs dense integer arithmetic with branches over two 16 KB
// arrays.
func arithKernel() int {
	const n = 4096
	a, b := make([]int32, n), make([]int32, n)
	for i := range a {
		a[i], b[i] = int32(i*7), int32(i^0x55)
	}
	var acc int32
	for r := 0; r < 20; r++ {
		for i := range a {
			v := a[i]*b[(i+r)&(n-1)] + int32(r)
			if v > acc {
				acc = v ^ int32(i)
			} else {
				acc += v >> 3
			}
			a[i] = v
		}
	}
	return int(acc)
}

// tableKernel fills a 256x256 int16 distance table and scans its rows for
// minima.
func tableKernel() int {
	const n = 256
	next := xorshift(777)
	table := make([]int16, n*n)
	for i := range table {
		table[i] = int16(next() & 31)
	}
	total := 0
	for r := 0; r < 10; r++ {
		for u := 0; u < n; u++ {
			best := int16(math.MaxInt16)
			for v, d := range table[u*n : u*n+n] {
				if d < best && v != u {
					best = d
				}
			}
			total += int(best)
		}
	}
	return total
}

// speedometer collects reference-kernel times, running the kernels in turn.
// Safe for concurrent use.
type speedometer struct {
	mu   sync.Mutex
	next int
	us   [][]float64 // per kernel
	sink int
}

func (sp *speedometer) measure() {
	sp.mu.Lock()
	k := sp.next % len(kernels)
	sp.next++
	sp.mu.Unlock()
	start := time.Now()
	v := kernels[k].run()
	us := float64(time.Since(start).Nanoseconds()) / 1e3
	sp.mu.Lock()
	sp.sink += v
	if sp.us == nil {
		sp.us = make([][]float64, len(kernels))
	}
	sp.us[k] = append(sp.us[k], us)
	sp.mu.Unlock()
}

func (sp *speedometer) burst() {
	for i := 0; i < burstRounds*len(kernels); i++ {
		sp.measure()
	}
}

// kernelUs returns each kernel's median time in microseconds.
func (sp *speedometer) kernelUs() []float64 {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	meds := make([]float64, len(sp.us))
	for k, us := range sp.us {
		meds[k] = median(us)
	}
	return meds
}

// factor is what a time measured alongside these kernel runs is multiplied
// by to read as on the nominal machine: the geometric mean over kernels of
// nominal over median time, above 1 when the machine ran fast.
func (sp *speedometer) factor() float64 {
	logSum := 0.0
	for k, us := range sp.kernelUs() {
		logSum += math.Log(kernels[k].nominalUs / us)
	}
	return math.Exp(logSum / float64(len(kernels)))
}

// pacer runs a kernel for one client at most every calibrateEvery.
type pacer struct {
	sp   *speedometer
	last time.Time
}

func (p *pacer) tick() {
	if time.Since(p.last) >= calibrateEvery {
		p.sp.measure()
		p.last = time.Now()
	}
}
