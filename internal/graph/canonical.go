package graph

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
)

// canonicalWork bounds the work one canonical-form search may do, counted
// in neighbour visits during refinement plus words of leaf certificates
// and automorphism tests (a few nanoseconds each). Graphs the service
// accepts (≤ 1024 vertices) that are rigid after refinement, or whose
// symmetry the automorphism pruning collapses, complete far inside it:
// K1000 takes 2.5M units, K32×K32 6.4M, cliques, cycles, tori, hypercubes,
// Paley graphs and unions of cliques less. The bound exists for the
// adversarial rest. Exhaustion falls back to a sound but
// labeling-dependent certificate (see CanonicalFormContext).
const canonicalWork = 1 << 25

// canonicalCheckEvery is how many work units may pass between two looks
// at the context and the budget.
const canonicalCheckEvery = 4096

// CanonicalForm is CanonicalFormContext without a deadline; it drops the
// completeness flag.
func CanonicalForm(g *Graph) (perm []int, hash [32]byte) {
	perm, hash, _ = CanonicalFormContext(context.Background(), g)
	return perm, hash
}

// CanonicalHash is CanonicalForm without the permutation.
func CanonicalHash(g *Graph) [32]byte {
	_, h := CanonicalForm(g)
	return h
}

// CanonicalFormContext computes a canonical labeling of g: a permutation
// perm with perm[v] = the canonical index of vertex v, and a hash over the
// edge set rewritten into canonical indices.
//
// When the search completes (complete == true), every relabeling of g
// yields the same hash. The converse is unconditional and is what cache
// correctness rests on: equal hashes imply isomorphic graphs, because the
// hash covers the full canonical edge list — equal certificates mean
// perm_a(A) and perm_b(B) are the same labeled graph, so perm_b⁻¹∘perm_a is
// an isomorphism. When ctx ends or the work budget runs out the search
// gives up (complete == false) and returns the best leaf found so far, or
// the identity labeling if none was reached: still a valid perm and a
// certificate of g, so a give-up can only cause cache misses.
//
// The algorithm is individualization-refinement in the style of nauty and
// bliss over an ordered partition of integer cells:
//
//   - Refinement splits every cell by neighbour count into a splitter
//     cell, fragments ordered by count, until the partition is equitable.
//     Splitters are taken smallest cell start first; when a cell that is
//     not queued splits, its largest fragment is not queued (Hopcroft).
//   - The search individualizes each member of the first non-singleton
//     cell in turn (moving it to the front of the cell) and refines again.
//     A discrete partition is a leaf whose certificate is the edge list
//     under the leaf's positions. Leaves are ordered by the trace of the
//     refinements on their path, then by certificate; the smallest wins,
//     and a refinement whose trace already exceeds the best leaf's is cut
//     short.
//   - A node whose non-singleton cells are all cliques or independent sets
//     joined all-or-nothing is a leaf too: permuting inside its cells is
//     an automorphism, so every leaf below shares its certificate.
//   - A leaf whose certificate equals the first or the best leaf's yields
//     an automorphism. The orbits of automorphisms that fix the first
//     path's prefix prune its siblings, and the subtree that produced the
//     equal leaf is abandoned, since it mirrors one already explored.
//
// Every decision depends only on positions in the ordered partition, never
// on vertex numbers, so the smallest leaf is labeling-independent.
func CanonicalFormContext(ctx context.Context, g *Graph) (perm []int, hash [32]byte, complete bool) {
	n := g.N()
	if n == 0 {
		return nil, sha256.Sum256(certBytes(nil, 0, nil)), true
	}
	s := newCanonSearch(ctx, g)
	s.setQueued(0)
	if s.refine() {
		s.traceEnd = append(s.traceEnd, int32(len(s.trace)))
		s.search(0, 0, true)
	}
	perm = make([]int, n)
	var words []uint64
	if s.haveBest {
		for i, v := range s.bestLab {
			perm[v] = i
		}
		words = s.bestCert
	} else {
		for v := range s.pos {
			perm[v] = v
			s.pos[v] = int32(v)
		}
		words = s.certWords(s.pos)
	}
	return perm, sha256.Sum256(certBytes(nil, n, words)), !s.stopped
}

// canonSearch is one canonical-form search.
type canonSearch struct {
	g   *Graph
	n   int
	ctx context.Context

	work, nextCheck int
	stopped         bool

	// The ordered partition. lab lists the vertices cell by cell; pos is
	// its inverse. Cells have ids 0..ncells-1: cell[v] is v's cell, which
	// spans positions start[id]..end[id]-1. A split keeps the id on its
	// largest fragment and gives the others new ids, recording the cell
	// they came from in parent, so undoing a split pops ids in LIFO order.
	lab, pos, cell      []int32
	start, end, parent  []int32
	ncells              int32
	queue               []uint64 // bit p set: the cell starting at p is a queued splitter
	qmin                int32    // no queue bit lies below qmin
	count, ntouch       []int32  // neighbour counts into the splitter; touched members per cell
	ncount              []int32  // per cell: one member's neighbours in it (uniform)
	touched             []int32  // ids of cells with touched members
	splitter, scratch   []int32
	bucket              []int32
	frags               []int32 // fragment boundaries of the cell being split
	path, kids          []int32
	firstPath, bestPath []int32

	// Refinement traces: every splitter that splits a cell appends a hash
	// of its fragments (cell start, fragment start and count) to trace,
	// and every refinement ends with -1; traceEnd[k] is where the depth-k
	// node's events end. Leaves are ordered by trace first, certificate
	// second (a trace that is a proper prefix of another is smaller), so a
	// refinement whose trace exceeds the best leaf's is abandoned as soon
	// as it does. Without this, unions of small symmetric components
	// (six triangles and six squares) exhaust the work budget. lessAt is
	// the shallowest depth at which the current path's trace fell below
	// the best leaf's (math.MaxInt while they agree); comparing is set
	// while the refinement in progress still agrees.
	trace, traceEnd  []int32
	bestTrace        []int32
	lessAt           int
	comparing, worse bool
	splits           uint32 // the current splitter's fragment hashes, summed

	// Leaves. firstPos is the first leaf's positions; bestLab and bestCert
	// the smallest certificate's labeling and sorted edge words.
	haveBest                 bool
	firstPos, bestLab, gamma []int32
	bestCert, cert, raw      []uint64
	cnt                      []int32
	stamp                    []int32
	epoch                    int32

	// Orbits of the automorphisms found so far (union-find), and, per
	// root, the first-path depth at which the orbit already has an
	// explored child (math.MaxInt32 when none).
	orbit, explored []int32
}

// newCanonSearch returns a search over g whose partition is one cell
// holding every vertex in order. Its per-vertex arrays share one
// allocation.
func newCanonSearch(ctx context.Context, g *Graph) *canonSearch {
	n := g.N()
	s := &canonSearch{g: g, n: n, ctx: ctx, ncells: 1, qmin: int32(n)}
	arena := make([]int32, 16*n+3)
	take := func(k int) []int32 {
		b := arena[:k:k]
		arena = arena[k:]
		return b
	}
	for _, p := range []*[]int32{&s.lab, &s.pos, &s.cell, &s.start, &s.end, &s.parent,
		&s.count, &s.ntouch, &s.ncount, &s.scratch, &s.gamma, &s.stamp, &s.orbit, &s.explored} {
		*p = take(n)
	}
	s.bucket, s.cnt = take(n+2), take(n+1)
	s.queue = make([]uint64, (n+63)/64)
	for v := 0; v < n; v++ {
		s.lab[v], s.pos[v] = int32(v), int32(v)
		s.orbit[v], s.explored[v] = int32(v), math.MaxInt32
	}
	s.end[0], s.parent[0] = int32(n), -1
	return s
}

// spend charges units of work and, every canonicalCheckEvery units, gives
// up if the context has ended or the budget is spent.
func (s *canonSearch) spend(units int) bool {
	s.work += units
	if s.work >= s.nextCheck {
		if s.work > canonicalWork || s.ctx.Err() != nil {
			s.stopped = true
			return false
		}
		s.nextCheck = s.work + canonicalCheckEvery
	}
	return true
}

func (s *canonSearch) setQueued(p int32) {
	s.queue[p>>6] |= 1 << (p & 63)
	s.qmin = min(s.qmin, p)
}

func (s *canonSearch) queued(p int32) bool { return s.queue[p>>6]&(1<<(p&63)) != 0 }

// popQueue removes and returns the smallest queued cell start, or -1.
func (s *canonSearch) popQueue() int32 {
	for w := int(s.qmin >> 6); w < len(s.queue); w++ {
		if b := s.queue[w]; b != 0 {
			p := int32(w<<6 + bits.TrailingZeros64(b))
			s.queue[w] = b & (b - 1)
			s.qmin = p
			return p
		}
	}
	s.qmin = int32(s.n)
	return -1
}

func (s *canonSearch) clearQueue() {
	for w := int(s.qmin >> 6); w < len(s.queue); w++ {
		s.queue[w] = 0
	}
	s.qmin = int32(s.n)
}

func (s *canonSearch) swap(u int32, q int32) {
	pu := s.pos[u]
	y := s.lab[q]
	s.lab[q], s.lab[pu] = u, y
	s.pos[u], s.pos[y] = q, pu
}

// mixSplit hashes one fragment of a split: the split cell's start, the
// fragment's start and its count. Touched cells split in an order that
// depends on vertex numbering, so a splitter's fragments are summed into
// one order-free trace event.
func mixSplit(c, fs, count int32) uint32 {
	x := uint32(c)*0x9e3779b1 ^ uint32(fs)*0x85ebca77 ^ uint32(count)*0xc2b2ae3d
	x ^= x >> 15
	x *= 0x2c1b3c6d
	x ^= x >> 12
	return x | 1
}

// emit appends one trace event and compares it with the best leaf's event
// at the same index.
func (s *canonSearch) emit(e int32) {
	i := len(s.trace)
	s.trace = append(s.trace, e)
	if !s.comparing {
		return
	}
	if i >= len(s.bestTrace) || e > s.bestTrace[i] {
		s.worse = true
		s.comparing = false
	} else if e < s.bestTrace[i] {
		s.lessAt = min(s.lessAt, len(s.traceEnd))
		s.comparing = false
	}
}

// refine splits cells by the queued splitters until the partition is
// equitable. It returns false if the search gave up (s.stopped) or the
// trace exceeded the best leaf's (s.worse).
func (s *canonSearch) refine() bool {
	for s.ncells < int32(s.n) {
		p := s.popQueue()
		if p < 0 {
			break
		}
		// Splitting may reorder the splitter's own cell, so a splitter of
		// more than one vertex is read from a copy.
		w := s.cell[s.lab[p]]
		sp := s.lab[p:s.end[w]]
		if len(sp) > 1 {
			s.splitter = append(s.splitter[:0], sp...)
			sp = s.splitter
		}
		units := len(sp)
		for _, x := range sp {
			nb := s.g.sorted[x]
			units += len(nb)
			for _, u := range nb {
				id := s.cell[u]
				if s.end[id]-s.start[id] == 1 {
					continue
				}
				if s.count[u] == 0 {
					k := s.ntouch[id]
					if k == 0 {
						s.touched = append(s.touched, id)
					}
					s.swap(u, s.end[id]-1-k)
					s.ntouch[id] = k + 1
				}
				s.count[u]++
			}
		}
		s.splits = 0
		for _, id := range s.touched {
			s.split(id)
		}
		s.touched = s.touched[:0]
		if s.splits != 0 {
			s.emit(int32(s.splits & math.MaxInt32))
		}
		if !s.spend(units) || s.worse {
			s.clearQueue()
			return false
		}
	}
	s.clearQueue()
	s.emit(-1)
	return !s.worse
}

// split divides cell id by the counts of its touched members, which
// refine gathered at the back of the cell. Fragments are ordered by
// count, untouched (count 0) first.
func (s *canonSearch) split(id int32) {
	c, e, t := s.start[id], s.end[id], s.ntouch[id]
	s.ntouch[id] = 0
	ts := e - t
	region := s.lab[ts:e]
	lo, hi := int32(math.MaxInt32), int32(0)
	for _, v := range region {
		lo, hi = min(lo, s.count[v]), max(hi, s.count[v])
	}
	if ts == c && lo == hi {
		for _, v := range region {
			s.count[v] = 0
		}
		return
	}
	if lo != hi {
		s.sortByCount(region, lo, hi)
	}
	s.frags = s.frags[:0]
	if ts > c {
		s.frags = append(s.frags, c)
	}
	for i, v := range region {
		if i == 0 || s.count[v] != s.count[region[i-1]] {
			s.frags = append(s.frags, ts+int32(i))
		}
	}
	s.frags = append(s.frags, e)
	largest := 0
	for f := 1; f+1 < len(s.frags); f++ {
		if s.frags[f+1]-s.frags[f] > s.frags[largest+1]-s.frags[largest] {
			largest = f
		}
	}
	wasQueued := s.queued(c)
	for f := 0; f+1 < len(s.frags); f++ {
		fs, fe := s.frags[f], s.frags[f+1]
		s.splits += mixSplit(c, fs, s.count[s.lab[fs]])
		if f == largest {
			s.start[id], s.end[id] = fs, fe
			continue
		}
		nid := s.ncells
		s.ncells++
		s.start[nid], s.end[nid], s.parent[nid] = fs, fe, id
		for _, v := range s.lab[fs:fe] {
			s.cell[v] = nid
		}
		s.setQueued(fs)
	}
	if wasQueued {
		s.setQueued(s.start[id])
	}
	for _, v := range region {
		s.count[v] = 0
	}
}

// sortByCount orders region's vertices by ascending count with a counting
// sort. Its cost, O(len(region) + hi - lo), is covered by the splitter's
// neighbour visits: some vertex in the region was counted hi times.
func (s *canonSearch) sortByCount(region []int32, lo, hi int32) {
	base := s.pos[region[0]]
	b := s.bucket[:hi-lo+2]
	clear(b)
	for _, v := range region {
		b[s.count[v]-lo+1]++
	}
	for i := 1; i < len(b); i++ {
		b[i] += b[i-1]
	}
	out := s.scratch[:len(region)]
	for _, v := range region {
		k := s.count[v] - lo
		out[b[k]] = v
		b[k]++
	}
	copy(region, out)
	for i, v := range region {
		s.pos[v] = base + int32(i)
	}
}

// individualize moves v to the front of its cell as a singleton cell and
// queues it as the next splitter.
func (s *canonSearch) individualize(v int32) {
	id := s.cell[v]
	c := s.start[id]
	s.swap(v, c)
	nid := s.ncells
	s.ncells++
	s.start[nid], s.end[nid], s.parent[nid] = c, c+1, id
	s.cell[v] = nid
	s.start[id] = c + 1
	s.setQueued(c)
}

// undo merges every cell created after the partition had mark cells back
// into the cell it was split from.
func (s *canonSearch) undo(mark int32) {
	for s.ncells > mark {
		s.ncells--
		id := s.ncells
		p := s.parent[id]
		for _, v := range s.lab[s.start[id]:s.end[id]] {
			s.cell[v] = p
		}
		s.start[p] = min(s.start[p], s.start[id])
		s.end[p] = max(s.end[p], s.end[id])
	}
}

// target returns the start of the first non-singleton cell at or after
// position from, or -1 if the partition is discrete from there on.
func (s *canonSearch) target(from int32) int32 {
	for i := from; i < int32(s.n); {
		e := s.end[s.cell[s.lab[i]]]
		if e-i > 1 {
			return i
		}
		i = e
	}
	return -1
}

// search explores the node at depth d, whose partition is equitable and
// discrete before position from. first marks nodes on the first path. It
// returns the depth whose child loop should continue: d-1 normally, less
// when a leaf proved an enclosing subtree a mirror of one already
// explored, and -1 when the search gave up.
func (s *canonSearch) search(d int, from int32, first bool) int {
	t := s.target(from)
	if t < 0 {
		return s.leaf(d)
	}
	if s.uniform(t) {
		for i := t; i < int32(s.n); i = s.end[s.cell[s.lab[i]]] {
			cell := s.lab[i:s.end[s.cell[s.lab[i]]]]
			for _, v := range cell[1:] {
				s.union(cell[0], v)
			}
		}
		return s.leaf(d)
	}
	id := s.cell[s.lab[t]]
	v0 := s.lab[t]
	if r := s.explore(d, v0, t, first); r != d {
		return r
	}
	if first {
		s.explored[s.find(v0)] = int32(d)
	}
	lo := len(s.kids)
	s.kids = append(s.kids, s.lab[s.start[id]:s.end[id]]...)
	hi := len(s.kids)
	defer func() { s.kids = s.kids[:lo] }()
	for i := lo; i < hi; i++ {
		w := s.kids[i]
		if w == v0 || first && s.explored[s.find(w)] == int32(d) {
			continue
		}
		if r := s.explore(d, w, t, false); r != d {
			return r
		}
		if first {
			s.explored[s.find(w)] = int32(d)
		}
	}
	return d - 1
}

// uniform reports whether every non-singleton cell from position t on is
// a clique or an independent set and is joined to every other cell by all
// possible edges or none. Then every permutation that maps each cell to
// itself is an automorphism, so all leaves below the node share one
// certificate — the one under the current order — and each cell is an
// orbit. The partition is equitable, so one member speaks for its cell.
func (s *canonSearch) uniform(t int32) bool {
	ok := true
	for i := t; ok && i < int32(s.n); {
		id := s.cell[s.lab[i]]
		e := s.end[id]
		if e-i > 1 {
			nb := s.g.sorted[s.lab[i]]
			if !s.spend(len(nb)) {
				return false // the refinement below sees the give-up
			}
			for _, u := range nb {
				c := s.cell[u]
				if s.ncount[c] == 0 {
					s.touched = append(s.touched, c)
				}
				s.ncount[c]++
			}
			for _, c := range s.touched {
				size := s.end[c] - s.start[c]
				if c == id {
					size--
				}
				ok = ok && s.ncount[c] == size
				s.ncount[c] = 0
			}
			s.touched = s.touched[:0]
		}
		i = e
	}
	return ok
}

// explore individualizes v at depth d, searches the child and restores the
// partition.
func (s *canonSearch) explore(d int, v, t int32, first bool) int {
	mark := s.ncells
	s.path = append(s.path[:d], v)
	s.trace, s.traceEnd = s.trace[:s.traceEnd[d]], s.traceEnd[:d+1]
	s.comparing, s.worse = s.lessAt > d, false
	s.individualize(v)
	r := d // a worse trace: nothing below can win, go on with the siblings
	if s.refine() {
		s.traceEnd = append(s.traceEnd, int32(len(s.trace)))
		r = s.search(d+1, t, first)
	} else if s.stopped {
		r = -1
	}
	s.undo(mark)
	if s.lessAt > d {
		s.lessAt = math.MaxInt
	}
	return r
}

// leaf handles a discrete partition at depth d.
func (s *canonSearch) leaf(d int) int {
	if !s.haveBest {
		if !s.spend(3*s.g.m + s.n) {
			return -1
		}
		s.cert = s.certWords(s.pos)
		s.firstPos = append(s.firstPos[:0], s.pos...)
		s.firstPath = append(s.firstPath[:0], s.path[:d]...)
		s.newBest(d)
		s.haveBest = true
		return d - 1
	}
	if !s.spend(3*s.g.m + s.n) {
		return -1
	}
	if s.automorphism(s.firstPos) {
		return commonPrefix(s.path[:d], s.firstPath)
	}
	if !s.spend(3*s.g.m + s.n) {
		return -1
	}
	s.cert = s.certWords(s.pos)
	c := -1
	if s.lessAt > d && len(s.trace) == len(s.bestTrace) {
		c = slices.Compare(s.cert, s.bestCert)
	}
	switch c {
	case -1:
		s.newBest(d)
	case 0:
		for i, x := range s.bestLab {
			s.union(x, s.lab[i])
		}
		return commonPrefix(s.path[:d], s.bestPath)
	}
	return d - 1
}

// newBest records the current leaf, whose certificate is in s.cert, as
// the best so far.
func (s *canonSearch) newBest(d int) {
	s.bestCert, s.cert = s.cert, s.bestCert
	s.bestLab = append(s.bestLab[:0], s.lab...)
	s.bestPath = append(s.bestPath[:0], s.path[:d]...)
	s.bestTrace = append(s.bestTrace[:0], s.trace...)
	s.lessAt = math.MaxInt
}

func commonPrefix(a, b []int32) int {
	j := 0
	for j < len(a) && j < len(b) && a[j] == b[j] {
		j++
	}
	return j
}

// automorphism reports whether the map taking the vertex at each position
// of the reference leaf (refPos) to the vertex at the same position of the
// current leaf preserves every edge, and if so merges its orbits. Checking
// each edge once suffices: the map is a bijection and edge counts agree.
func (s *canonSearch) automorphism(refPos []int32) bool {
	gamma := s.gamma
	for v, p := range refPos {
		gamma[v] = s.lab[p]
	}
	for u := 0; u < s.n; u++ {
		s.epoch++
		gu := gamma[u]
		for _, x := range s.g.sorted[gu] {
			s.stamp[x] = s.epoch
		}
		for _, w := range s.g.above(u) {
			if s.stamp[gamma[w]] != s.epoch {
				return false
			}
		}
	}
	for v, gv := range gamma {
		s.union(int32(v), gv)
	}
	return true
}

func (s *canonSearch) find(v int32) int32 {
	for s.orbit[v] != v {
		s.orbit[v] = s.orbit[s.orbit[v]]
		v = s.orbit[v]
	}
	return v
}

func (s *canonSearch) union(a, b int32) {
	ra, rb := s.find(a), s.find(b)
	if ra == rb {
		return
	}
	if rb < ra {
		ra, rb = rb, ra
	}
	s.orbit[rb] = ra
	s.explored[ra] = min(s.explored[ra], s.explored[rb])
}

// certWords returns g's edge list under the labeling pos, each edge packed
// as a<<32|b with a < b, sorted ascending by a two-pass counting sort: by
// b, then stably by a.
func (s *canonSearch) certWords(pos []int32) []uint64 {
	n, m := s.n, s.g.m
	raw, tmp := grow64(s.raw, m)[:0], grow64(s.cert, m)
	for u := 0; u < n; u++ {
		pu := pos[u]
		for _, w := range s.g.above(u) {
			a, b := pu, pos[w]
			if a > b {
				a, b = b, a
			}
			raw = append(raw, uint64(a)<<32|uint64(b))
		}
	}
	countingSort(tmp, raw, s.cnt[:n+1], 0)
	countingSort(raw, tmp, s.cnt[:n+1], 32)
	s.raw, s.cert = tmp, raw
	return raw
}

// countingSort stably sorts src into dst by the 32-bit key at shift;
// keys are below len(cnt)-1.
func countingSort(dst, src []uint64, cnt []int32, shift uint) {
	clear(cnt)
	for _, p := range src {
		cnt[(p>>shift)&math.MaxUint32+1]++
	}
	for i := 1; i < len(cnt); i++ {
		cnt[i] += cnt[i-1]
	}
	for _, p := range src {
		k := (p >> shift) & math.MaxUint32
		dst[cnt[k]] = p
		cnt[k]++
	}
}

func grow64(b []uint64, n int) []uint64 {
	if cap(b) < n {
		return make([]uint64, n)
	}
	return b[:n]
}

// certBytes appends the certificate's byte form to buf: vertex count, edge
// count, then each edge's endpoints, all as uvarints.
func certBytes(buf []byte, n int, words []uint64) []byte {
	buf = binary.AppendUvarint(buf, uint64(n))
	buf = binary.AppendUvarint(buf, uint64(len(words)))
	for _, p := range words {
		buf = binary.AppendUvarint(buf, p>>32)
		buf = binary.AppendUvarint(buf, p&math.MaxUint32)
	}
	return buf
}

// Relabel returns the graph with vertex v renamed to perm[v]. perm must
// be a bijection on [0, g.N()).
func Relabel(g *Graph, perm []int) *Graph {
	out := New(g.N())
	for _, e := range g.Edges() {
		out.AddEdge(perm[e.U], perm[e.V])
	}
	return out
}
