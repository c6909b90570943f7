// Package topology models the structured population of a cellular GA: a
// two-dimensional toroidal mesh of individuals, the neighborhood shapes
// that define who may mate with whom (§3.1), the contiguous row-major
// block partition that PA-CGA assigns to threads (§3.2, Fig. 2).
package topology

import "fmt"

// Grid is a W×H toroidal mesh. Cells are indexed row-major: cell i lives
// at column i%W, row i/W, and all coordinate arithmetic wraps around.
type Grid struct {
	W, H int
}

// NewGrid returns a grid with the given dimensions.
func NewGrid(w, h int) (Grid, error) {
	if w <= 0 || h <= 0 {
		return Grid{}, fmt.Errorf("topology: non-positive grid %dx%d", w, h)
	}
	return Grid{W: w, H: h}, nil
}

// Size returns the number of cells.
func (g Grid) Size() int { return g.W * g.H }

// Index converts wrapped coordinates to a cell index.
func (g Grid) Index(x, y int) int {
	x = mod(x, g.W)
	y = mod(y, g.H)
	return y*g.W + x
}

// Coord converts a cell index to (column, row).
func (g Grid) Coord(i int) (x, y int) { return i % g.W, i / g.W }

func mod(a, n int) int {
	a %= n
	if a < 0 {
		a += n
	}
	return a
}

// ManhattanDistance returns the toroidal Manhattan distance between two
// cells — the metric that defines "closest individuals" in §3.1.
func (g Grid) ManhattanDistance(a, b int) int {
	ax, ay := g.Coord(a)
	bx, by := g.Coord(b)
	dx := abs(ax - bx)
	if wrap := g.W - dx; wrap < dx {
		dx = wrap
	}
	dy := abs(ay - by)
	if wrap := g.H - dy; wrap < dy {
		dy = wrap
	}
	return dx + dy
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Neighborhood is a cellular GA neighborhood shape.
type Neighborhood int

const (
	// L5 is the "linear 5" / Von Neumann neighborhood used by the paper:
	// the cell itself plus its 4 nearest neighbors (N, S, E, W). The
	// paper chooses it specifically to reduce concurrent memory access.
	L5 Neighborhood = iota
	// C9 is the "compact 9" / Moore neighborhood: the 3×3 square.
	C9
	// L9 is the "linear 9" neighborhood: the cell plus 2 steps in each
	// cardinal direction.
	L9
)

// String implements fmt.Stringer.
func (n Neighborhood) String() string {
	switch n {
	case L5:
		return "L5"
	case C9:
		return "C9"
	case L9:
		return "L9"
	default:
		return fmt.Sprintf("Neighborhood(%d)", int(n))
	}
}

// ParseNeighborhood parses the names above (case-sensitive).
func ParseNeighborhood(s string) (Neighborhood, error) {
	switch s {
	case "L5", "l5":
		return L5, nil
	case "C9", "c9":
		return C9, nil
	case "L9", "l9":
		return L9, nil
	}
	return 0, fmt.Errorf("topology: unknown neighborhood %q", s)
}

// Size returns the number of cells in the neighborhood, including the
// center cell.
func (n Neighborhood) Size() int {
	switch n {
	case L5:
		return 5
	case C9:
		return 9
	case L9:
		return 9
	default:
		return 0
	}
}

// Neighbors appends the cells of the neighborhood of center (center
// first) to buf and returns it. On tiny grids wrapped offsets may
// coincide; duplicates are removed so selection never considers the same
// individual twice.
func (n Neighborhood) Neighbors(g Grid, center int, buf []int) []int {
	x, y := g.Coord(center)
	buf = append(buf[:0], center)
	add := func(dx, dy int) {
		idx := g.Index(x+dx, y+dy)
		for _, seen := range buf {
			if seen == idx {
				return
			}
		}
		buf = append(buf, idx)
	}
	switch n {
	case L5:
		add(0, -1)
		add(-1, 0)
		add(1, 0)
		add(0, 1)
	case C9:
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 {
					continue
				}
				add(dx, dy)
			}
		}
	case L9:
		add(0, -2)
		add(0, -1)
		add(-2, 0)
		add(-1, 0)
		add(1, 0)
		add(2, 0)
		add(0, 1)
		add(0, 2)
	default:
		panic(fmt.Sprintf("topology: unknown neighborhood %d", int(n)))
	}
	return buf
}

// Block is a contiguous range of row-major cell indices [Start, End)
// evolved by one thread.
type Block struct {
	Start, End int
}

// Len returns the number of cells in the block.
func (b Block) Len() int { return b.End - b.Start }

// Contains reports whether cell i belongs to the block.
func (b Block) Contains(i int) bool { return i >= b.Start && i < b.End }

// Partition splits size cells into nblocks contiguous row-major blocks of
// near-equal length (the first size%nblocks blocks get one extra cell),
// reproducing Fig. 2's assignment of successive individuals — right
// neighbor, then next row — to the same thread.
func Partition(size, nblocks int) ([]Block, error) {
	if size <= 0 {
		return nil, fmt.Errorf("topology: non-positive population %d", size)
	}
	if nblocks <= 0 {
		return nil, fmt.Errorf("topology: non-positive block count %d", nblocks)
	}
	if nblocks > size {
		return nil, fmt.Errorf("topology: %d blocks for %d cells", nblocks, size)
	}
	base := size / nblocks
	extra := size % nblocks
	blocks := make([]Block, nblocks)
	start := 0
	for i := range blocks {
		length := base
		if i < extra {
			length++
		}
		blocks[i] = Block{Start: start, End: start + length}
		start += length
	}
	return blocks, nil
}

// BlockOf returns the index of the block containing cell i, or -1.
func BlockOf(blocks []Block, i int) int {
	for b, blk := range blocks {
		if blk.Contains(i) {
			return b
		}
	}
	return -1
}

// BoundaryCells returns the cells of block b whose neighborhood (under n
// on grid g) includes at least one cell outside the block. The paper's
// Fig. 4 discussion attributes the poor 0-iteration scaling to the
// growing fraction of such cells as blocks shrink.
func BoundaryCells(g Grid, n Neighborhood, blocks []Block, b int) []int {
	var out []int
	buf := make([]int, 0, n.Size())
	blk := blocks[b]
	for i := blk.Start; i < blk.End; i++ {
		buf = n.Neighbors(g, i, buf)
		for _, c := range buf[1:] {
			if !blk.Contains(c) {
				out = append(out, i)
				break
			}
		}
	}
	return out
}
