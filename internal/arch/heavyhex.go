package arch

import (
	"fmt"

	"github.com/ata-pattern/ataqc/internal/graph"
)

// HeavyHex returns an IBM heavy-hex architecture with `rows` horizontal
// lines of `width` qubits each, connected by bridge qubits (Fig 16).
//
// Between row k and row k+1 bridges sit every 4 columns; the bridge columns
// shift by 2 between consecutive row pairs, which produces the dodecagon
// (heavy-hexagon) cells of the IBM lattice. For even k the bridge columns
// run ..., width-1-4, width-1 (so a bridge always sits at the right end);
// for odd k they run 0, 4, 8, ... (a bridge at the left end). The end
// bridges let the longest path (Arch.Path) snake through every row qubit:
// row 0 left-to-right, down the right-end bridge, row 1 right-to-left, down
// the left-end bridge, and so on — exactly the numbered path of Fig 16. The
// interior bridges are the off-path qubits (lettered A–H in Fig 16).
func HeavyHex(rows, width int) *Arch {
	if rows < 1 || width < 2 {
		panic(fmt.Sprintf("arch: invalid heavy-hex %dx%d", rows, width))
	}
	if width%4 == 1 {
		// Bridge columns run every 4 columns from the right end (even gaps)
		// and from column 0 (odd gaps). width ≡ 1 (mod 4) would make the two
		// families coincide and give some row qubits two bridges (degree 4,
		// not heavy-hex); widen by one column instead.
		width++
	}
	var (
		coords  []Coord
		edges   [][2]int
		rowIDs  = make([][]int, rows)
		next    int
		bridges []struct {
			id, row, col int // between row `row` and `row+1` at column `col`
		}
	)
	// Row qubits first.
	for k := 0; k < rows; k++ {
		rowIDs[k] = make([]int, width)
		for c := 0; c < width; c++ {
			rowIDs[k][c] = next
			coords = append(coords, Coord{Row: k, Col: c})
			next++
		}
		for c := 0; c+1 < width; c++ {
			edges = append(edges, [2]int{rowIDs[k][c], rowIDs[k][c+1]})
		}
	}
	// Bridge qubits.
	for k := 0; k+1 < rows; k++ {
		var cols []int
		if k%2 == 0 {
			for c := width - 1; c >= 0; c -= 4 {
				cols = append(cols, c)
			}
		} else {
			for c := 0; c < width; c += 4 {
				cols = append(cols, c)
			}
		}
		for _, c := range cols {
			id := next
			next++
			coords = append(coords, Coord{Row: k, Col: c, Bridge: true})
			bridges = append(bridges, struct{ id, row, col int }{id, k, c})
			edges = append(edges, [2]int{rowIDs[k][c], id}, [2]int{id, rowIDs[k+1][c]})
		}
	}
	g := graph.New(next)
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}

	// Longest path: snake over the row qubits through the end bridges.
	var path []int
	pathIdx := make(map[int]int)
	appendQ := func(q int) {
		pathIdx[q] = len(path)
		path = append(path, q)
	}
	for k := 0; k < rows; k++ {
		if k%2 == 0 {
			for c := 0; c < width; c++ {
				appendQ(rowIDs[k][c])
			}
		} else {
			for c := width - 1; c >= 0; c-- {
				appendQ(rowIDs[k][c])
			}
		}
		if k+1 < rows {
			// End bridge: right end for even k, left end for odd k.
			endCol := width - 1
			if k%2 == 1 {
				endCol = 0
			}
			for _, b := range bridges {
				if b.row == k && b.col == endCol {
					appendQ(b.id)
					break
				}
			}
		}
	}

	var offPath []OffPathQubit
	for _, b := range bridges {
		if _, on := pathIdx[b.id]; on {
			continue
		}
		var anchors []int
		for _, nb := range g.Neighbors(b.id) {
			if i, ok := pathIdx[nb]; ok {
				anchors = append(anchors, i)
			}
		}
		offPath = append(offPath, OffPathQubit{Qubit: b.id, PathAnchors: anchors})
	}

	a := &Arch{
		Name:    fmt.Sprintf("heavyhex-%dx%d", rows, width),
		Kind:    KindHeavyHex,
		G:       g,
		Coords:  coords,
		Path:    path,
		OffPath: offPath,
	}
	return a.seal()
}

// HeavyHexN returns a heavy-hex architecture with at least n qubits and a
// near-square overall shape (§7.1: "scale both architectures to 1024 qubits
// and keep the shape close to a square").
func HeavyHexN(n int) *Arch {
	// rows*width row qubits plus (rows-1)*ceil(width/4) bridges. Pick the
	// feasible configuration whose footprint is closest to square (rows are
	// spaced by bridge layers, so width ~ 2*rows reads as square), then
	// build it; a single row of n qubits when none is feasible.
	bestRows, bestWidth, bestGap := 1, max(2, n), 1<<30
	for rows := 1; rows <= n; rows++ {
		lo, hi := 2, 2*n
		for lo < hi {
			mid := (lo + hi) / 2
			if heavyHexCount(rows, mid) >= n {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		if heavyHexCount(rows, lo) < n {
			continue
		}
		if gap := aspectGap(rows, lo); gap < bestGap {
			bestRows, bestWidth, bestGap = rows, lo, gap
		}
		if 2*rows > lo {
			break
		}
	}
	return HeavyHex(bestRows, bestWidth)
}

func heavyHexCount(rows, width int) int {
	n := rows * width
	perGap := (width + 3) / 4
	n += (rows - 1) * perGap
	return n
}

func aspectGap(rows, width int) int {
	d := width - 2*rows
	if d < 0 {
		d = -d
	}
	return d
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
