package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one timed operation: a compile call or a served request.
type sample struct {
	class  int           // instance row the operation belongs to
	lat    time.Duration // speed-scaled once its round ends
	late   time.Duration // open loop: how late the request was sent
	depth  int
	cx     int
	failed bool
}

// failures counts failed output checks and logs the first few. Safe for
// concurrent use.
type failures struct {
	mu sync.Mutex
	n  int
}

func (f *failures) add(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if f.n <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", fmt.Sprintf(format, args...))
	}
}

func (f *failures) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// closedLoop runs clients that each issue their next operation as soon as the
// previous one returns, until d has passed, with the reference kernel paced
// between operations. next hands out submission indices; op performs one.
// It returns the samples and the wall time.
func closedLoop(clients int, d time.Duration, sp *speedometer, next func() int, op func(i int) sample) ([]sample, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := pacer{sp: sp, last: start}
			for time.Now().Before(deadline) {
				per[c] = append(per[c], op(next()))
				p.tick()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all, wall
}

// cyclic returns a next function walking order round-robin from a shared
// position, so concurrent clients interleave over one sequence.
func cyclic(order []int) func() int {
	var pos atomic.Int64
	return func() int { return order[int(pos.Add(1)-1)%len(order)] }
}

// openLoop sends each arrival at its due offset from the start, using at most
// senders goroutines. An arrival whose due time passes while every sender is
// busy goes out late; its latency still counts from the due time, so a stall
// is charged to every request it delays. A sender runs the reference kernel
// only while no request is being served and its own next request is far
// enough away, so the kernels time the machine and not the server's load.
func openLoop(senders int, due []time.Duration, sp *speedometer, send func(i int, due time.Time) sample) ([]sample, time.Duration) {
	start := time.Now()
	var pos, serving atomic.Int64
	per := make([][]sample, senders)
	var wg sync.WaitGroup
	for c := 0; c < senders; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := pacer{sp: sp, last: start}
			for {
				i := int(pos.Add(1) - 1)
				if i >= len(due) {
					return
				}
				at := start.Add(due[i])
				if time.Until(at) > kernelBudget && serving.Load() == 0 {
					p.tick()
				}
				if wait := time.Until(at); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				serving.Add(1)
				s := send(i, at)
				serving.Add(-1)
				s.late = sent.Sub(at)
				per[c] = append(per[c], s)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all, wall
}

// heapSampler polls the live heap while a round runs. The live heap is
// updated at the end of each GC cycle; its median over the round is stable
// where its peak, set by whatever happened to be in flight during one
// cycle, is not.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mb   []float64
}

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func liveHeapMB() float64 { return float64(readMetric("/gc/heap/live:bytes")) / (1 << 20) }

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{}), mb: []float64{liveHeapMB()}}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.mb = append(h.mb, liveHeapMB())
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the median live heap in MB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return median(h.mb)
}

// timedRound runs one round of a session with GC settled first, the live
// heap sampled throughout, and the reference kernel run around and during
// the round.
func timedRound(s session, d time.Duration, tr *tracer) (roundStats, []sample, error) {
	runtime.GC()
	sp := &speedometer{}
	sp.burst()
	heap := startHeapSampler()
	samples, wall, err := s.round(d, sp, tr)
	heapMB := heap.finish()
	if err != nil {
		return roundStats{}, nil, err
	}
	sp.burst()
	speed := sp.factor()
	for i := range samples {
		samples[i].lat = time.Duration(float64(samples[i].lat) * speed)
	}
	st := summarize(samples, s.layout(), wall, speed)
	st.values["heap_live_mb"] = heapMB
	st.kernelUs = sp.kernelUs()
	return st, samples, nil
}

// roundStats holds one round's end-to-end values by metric name.
type roundStats struct {
	values   map[string]float64
	speed    float64   // the factor times were scaled by
	kernelUs []float64 // each reference kernel's median time
	lateP99  float64
}

// summarize reduces one round's samples, whose latencies are already scaled
// by the round's speed factor. An instance's latency, depth and CX are the
// medians of its samples; the geomeans run over instances, so every
// instance weighs the same whatever its share of the operations.
// Closed-loop throughput is scaled too, while an open loop's goodput is set
// by its arrival schedule and is not.
func summarize(samples []sample, l layout, wall time.Duration, speed float64) roundStats {
	n := len(l.classes)
	lat := make([][]float64, n)
	depth := make([][]float64, n)
	cx := make([][]float64, n)
	var late []float64
	ok := 0
	for _, s := range samples {
		ms := durMs(s.lat)
		late = append(late, durMs(s.late))
		lat[s.class] = append(lat[s.class], ms)
		if s.failed {
			continue
		}
		ok++
		if s.class >= l.quality {
			depth[s.class] = append(depth[s.class], float64(s.depth))
			cx[s.class] = append(cx[s.class], float64(s.cx))
		}
	}
	st := roundStats{values: map[string]float64{}, speed: speed, lateP99: quantile(late, 0.99)}
	st.values["latency_ms_geomean"] = geomean(medians(lat))
	st.values["latency_ms_slowest"] = maxOrNaN(medians(lat))
	st.values["ops_per_s"] = float64(ok) / wall.Seconds()
	if !l.open {
		st.values["ops_per_s"] /= speed
	}
	st.values["depth_geomean"] = geomean(medians(depth))
	st.values["cx_geomean"] = geomean(medians(cx))
	return st
}

func durMs(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile interpolates linearly between the closest ranks; xs is not
// modified. NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// medians returns the median of each non-empty group.
func medians(groups [][]float64) []float64 {
	var meds []float64
	for _, g := range groups {
		if len(g) > 0 {
			meds = append(meds, median(g))
		}
	}
	return meds
}

// maxOrNaN is the largest value, NaN for none.
func maxOrNaN(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return slices.Max(xs)
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
