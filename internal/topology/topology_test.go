package topology

import (
	"testing"
	"testing/quick"
)

func mustGrid(t *testing.T, w, h int) Grid {
	t.Helper()
	g, err := NewGrid(w, h)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGridIndexCoordRoundTrip(t *testing.T) {
	g := mustGrid(t, 16, 16)
	for i := 0; i < g.Size(); i++ {
		x, y := g.Coord(i)
		if g.Index(x, y) != i {
			t.Fatalf("round trip failed for %d", i)
		}
	}
}

func TestGridWrapping(t *testing.T) {
	g := mustGrid(t, 4, 3)
	if g.Index(-1, 0) != g.Index(3, 0) {
		t.Fatal("x wrap failed")
	}
	if g.Index(0, -1) != g.Index(0, 2) {
		t.Fatal("y wrap failed")
	}
	if g.Index(4, 3) != g.Index(0, 0) {
		t.Fatal("positive wrap failed")
	}
	if g.Index(-5, -4) != g.Index(3, 2) {
		t.Fatal("multi-wrap failed")
	}
}

func TestNewGridRejectsBadDims(t *testing.T) {
	if _, err := NewGrid(0, 4); err == nil {
		t.Fatal("accepted zero width")
	}
	if _, err := NewGrid(4, -1); err == nil {
		t.Fatal("accepted negative height")
	}
}

func TestManhattanDistanceTorus(t *testing.T) {
	g := mustGrid(t, 8, 8)
	a := g.Index(0, 0)
	b := g.Index(7, 0)
	if d := g.ManhattanDistance(a, b); d != 1 {
		t.Fatalf("wrap distance %d, want 1", d)
	}
	c := g.Index(4, 4)
	if d := g.ManhattanDistance(a, c); d != 8 {
		t.Fatalf("antipodal distance %d, want 8", d)
	}
	if g.ManhattanDistance(a, a) != 0 {
		t.Fatal("self distance nonzero")
	}
}

func TestManhattanSymmetryProperty(t *testing.T) {
	g := mustGrid(t, 16, 16)
	f := func(aRaw, bRaw uint16) bool {
		a := int(aRaw) % g.Size()
		b := int(bRaw) % g.Size()
		return g.ManhattanDistance(a, b) == g.ManhattanDistance(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestL5Neighborhood(t *testing.T) {
	g := mustGrid(t, 16, 16)
	buf := L5.Neighbors(g, g.Index(5, 5), nil)
	if len(buf) != 5 {
		t.Fatalf("L5 size %d, want 5", len(buf))
	}
	if buf[0] != g.Index(5, 5) {
		t.Fatal("center not first")
	}
	want := map[int]bool{
		g.Index(5, 5): true, g.Index(5, 4): true, g.Index(5, 6): true,
		g.Index(4, 5): true, g.Index(6, 5): true,
	}
	for _, c := range buf {
		if !want[c] {
			t.Fatalf("unexpected L5 member %d", c)
		}
	}
}

func TestL5AllDistanceOne(t *testing.T) {
	g := mustGrid(t, 16, 16)
	for i := 0; i < g.Size(); i++ {
		for _, c := range L5.Neighbors(g, i, nil)[1:] {
			if g.ManhattanDistance(i, c) != 1 {
				t.Fatalf("L5 neighbor %d of %d at distance %d", c, i, g.ManhattanDistance(i, c))
			}
		}
	}
}

func TestC9Neighborhood(t *testing.T) {
	g := mustGrid(t, 16, 16)
	buf := C9.Neighbors(g, 0, nil)
	if len(buf) != 9 {
		t.Fatalf("C9 size %d, want 9", len(buf))
	}
}

func TestL9Neighborhood(t *testing.T) {
	g := mustGrid(t, 16, 16)
	buf := L9.Neighbors(g, g.Index(8, 8), nil)
	if len(buf) != 9 {
		t.Fatalf("L9 size %d, want 9", len(buf))
	}
	for _, c := range buf[1:] {
		if d := g.ManhattanDistance(g.Index(8, 8), c); d != 1 && d != 2 {
			t.Fatalf("L9 member at distance %d", d)
		}
	}
}

func TestNeighborhoodDedupOnTinyGrid(t *testing.T) {
	g := mustGrid(t, 2, 2)
	buf := C9.Neighbors(g, 0, nil)
	seen := map[int]bool{}
	for _, c := range buf {
		if seen[c] {
			t.Fatalf("duplicate neighbor %d on tiny grid: %v", c, buf)
		}
		seen[c] = true
	}
	if len(buf) != 4 { // the whole 2x2 grid
		t.Fatalf("tiny grid C9 has %d members, want 4", len(buf))
	}
	l5 := L5.Neighbors(mustGrid(t, 1, 1), 0, nil)
	if len(l5) != 1 {
		t.Fatalf("1x1 grid L5 = %v", l5)
	}
}

func TestNeighborhoodSymmetryProperty(t *testing.T) {
	// If b is in N(a), then a is in N(b): neighborhood overlap is what
	// makes information spread through the cellular population.
	g := mustGrid(t, 16, 16)
	for _, n := range []Neighborhood{L5, C9, L9} {
		f := func(cellRaw uint16) bool {
			a := int(cellRaw) % g.Size()
			for _, b := range n.Neighbors(g, a, nil)[1:] {
				found := false
				for _, back := range n.Neighbors(g, b, nil)[1:] {
					if back == a {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 64}); err != nil {
			t.Fatalf("%v: %v", n, err)
		}
	}
}

func TestNeighborhoodParseString(t *testing.T) {
	for _, n := range []Neighborhood{L5, C9, L9} {
		got, err := ParseNeighborhood(n.String())
		if err != nil || got != n {
			t.Fatalf("parse %v -> %v, %v", n, got, err)
		}
	}
	if _, err := ParseNeighborhood("X3"); err == nil {
		t.Fatal("accepted bogus neighborhood")
	}
}

func TestPartitionExact(t *testing.T) {
	blocks, err := Partition(256, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 4 {
		t.Fatalf("%d blocks", len(blocks))
	}
	for i, b := range blocks {
		if b.Len() != 64 {
			t.Fatalf("block %d has %d cells, want 64", i, b.Len())
		}
	}
	if blocks[0].Start != 0 || blocks[3].End != 256 {
		t.Fatal("blocks do not tile the population")
	}
}

func TestPartitionRemainder(t *testing.T) {
	blocks, err := Partition(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	lens := []int{blocks[0].Len(), blocks[1].Len(), blocks[2].Len()}
	if lens[0] != 4 || lens[1] != 3 || lens[2] != 3 {
		t.Fatalf("remainder distribution %v", lens)
	}
	// Contiguity.
	for i := 1; i < len(blocks); i++ {
		if blocks[i].Start != blocks[i-1].End {
			t.Fatal("blocks are not contiguous")
		}
	}
}

func TestPartitionErrors(t *testing.T) {
	if _, err := Partition(0, 1); err == nil {
		t.Fatal("accepted empty population")
	}
	if _, err := Partition(4, 0); err == nil {
		t.Fatal("accepted zero blocks")
	}
	if _, err := Partition(3, 5); err == nil {
		t.Fatal("accepted more blocks than cells")
	}
}

func TestPartitionCoversProperty(t *testing.T) {
	f := func(sizeRaw, nRaw uint8) bool {
		size := int(sizeRaw)%500 + 1
		n := int(nRaw)%size + 1
		blocks, err := Partition(size, n)
		if err != nil {
			return false
		}
		covered := 0
		for _, b := range blocks {
			if b.Len() <= 0 {
				return false
			}
			covered += b.Len()
		}
		return covered == size && blocks[0].Start == 0 && blocks[len(blocks)-1].End == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockOf(t *testing.T) {
	blocks, _ := Partition(16, 4)
	if BlockOf(blocks, 0) != 0 || BlockOf(blocks, 15) != 3 || BlockOf(blocks, 7) != 1 {
		t.Fatal("BlockOf misassigns")
	}
	if BlockOf(blocks, 16) != -1 {
		t.Fatal("BlockOf accepted out-of-range cell")
	}
}

func TestBoundaryCellsGrowWithThreads(t *testing.T) {
	// The §4.2 argument: more threads => smaller blocks => a larger
	// fraction of boundary cells. Verify monotonicity on the paper's
	// 16x16 grid with L5.
	g := mustGrid(t, 16, 16)
	prevFrac := -1.0
	for _, threads := range []int{1, 2, 4, 8} {
		blocks, err := Partition(g.Size(), threads)
		if err != nil {
			t.Fatal(err)
		}
		boundary := 0
		for b := range blocks {
			boundary += len(BoundaryCells(g, L5, blocks, b))
		}
		frac := float64(boundary) / float64(g.Size())
		if frac < prevFrac {
			t.Fatalf("boundary fraction decreased with more threads: %v -> %v at %d threads", prevFrac, frac, threads)
		}
		prevFrac = frac
	}
	// With one thread, no neighborhood leaves the single block.
	blocks, _ := Partition(g.Size(), 1)
	if n := len(BoundaryCells(g, L5, blocks, 0)); n != 0 {
		t.Fatalf("single block reports %d boundary cells", n)
	}
}

func BenchmarkL5Neighbors(b *testing.B) {
	g, _ := NewGrid(16, 16)
	buf := make([]int, 0, 5)
	for i := 0; i < b.N; i++ {
		buf = L5.Neighbors(g, i%g.Size(), buf)
	}
	_ = buf
}
