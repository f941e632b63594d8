package dataset

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

func TestSortIndexOrdersValuesMissingLast(t *testing.T) {
	c := NewNumeric("x", []float64{5, 1, 3, 2, 4, 9, 0})
	c.SetMissing(2)
	c.SetMissing(5)
	idx := c.SortIndex()
	if len(idx) != 7 {
		t.Fatalf("index length %d, want 7", len(idx))
	}
	presentN := 5
	for i := 1; i < presentN; i++ {
		a, b := idx[i-1], idx[i]
		if c.Floats[a] > c.Floats[b] {
			t.Fatalf("values out of order at %d: %g > %g", i, c.Floats[a], c.Floats[b])
		}
	}
	for i := presentN; i < len(idx); i++ {
		if !c.IsMissing(int(idx[i])) {
			t.Fatalf("row %d at tail position %d is not missing", idx[i], i)
		}
	}
	for i := presentN + 1; i < len(idx); i++ {
		if idx[i-1] >= idx[i] {
			t.Fatalf("missing tail not ordered by row id: %d >= %d", idx[i-1], idx[i])
		}
	}
}

func TestSortIndexRowTiebreakAndCaching(t *testing.T) {
	c := NewNumeric("x", []float64{2, 1, 2, 1, 2})
	idx := c.SortIndex()
	want := []int32{1, 3, 0, 2, 4}
	for i, r := range want {
		if idx[i] != r {
			t.Fatalf("idx = %v, want %v", idx, want)
		}
	}
	if !c.HasSortIndex() {
		t.Fatal("index not cached after build")
	}
	if c.SortIndexBytes() != 4*5+8 { // permutation + one run-start word
		t.Fatalf("SortIndexBytes = %d, want 28", c.SortIndexBytes())
	}
	idx2 := c.SortIndex()
	if &idx[0] != &idx2[0] {
		t.Fatal("second call rebuilt the index instead of reusing the cache")
	}
}

func TestSortIndexCategoricalNil(t *testing.T) {
	c := NewCategorical("c", []int32{0, 1}, []string{"a", "b"})
	if c.SortIndex() != nil {
		t.Fatal("categorical column returned a sort index")
	}
	if c.SortIndexBytes() != 0 {
		t.Fatal("categorical column reports index bytes")
	}
}

func TestSortIndexFreshAfterGatherAndClone(t *testing.T) {
	c := NewNumeric("x", []float64{3, 1, 2})
	_ = c.SortIndex()
	g := c.Gather([]int32{2, 0})
	if g.HasSortIndex() {
		t.Fatal("gathered shard inherited the parent's sort index")
	}
	gi := g.SortIndex()
	if gi[0] != 0 || gi[1] != 1 { // shard values are [2, 3]
		t.Fatalf("shard index %v, want [0 1]", gi)
	}
	cl := c.Clone()
	if cl.HasSortIndex() {
		t.Fatal("clone inherited the cached sort index")
	}
}

func TestSortIndexConcurrentBuild(t *testing.T) {
	vals := make([]float64, 5000)
	rng := rand.New(rand.NewSource(7))
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	c := NewNumeric("x", vals)
	var wg sync.WaitGroup
	results := make([][]int32, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = c.SortIndex()
		}(g)
	}
	wg.Wait()
	for g := 1; g < 8; g++ {
		for i := range results[0] {
			if results[0][i] != results[g][i] {
				t.Fatalf("goroutine %d saw a different permutation at %d", g, i)
			}
		}
	}
}

// comparatorSortIndex is the closure-comparator SortIndex the radix sort
// replaced, kept as the reference order: ascending value, ties (and −0/+0)
// by row, missing rows last by row.
func comparatorSortIndex(c *Column) []int32 {
	idx := AllRows(len(c.Floats))
	slices.SortFunc(idx, func(a, b int32) int {
		am, bm := c.IsMissing(int(a)), c.IsMissing(int(b))
		if am != bm {
			if bm {
				return -1
			}
			return 1
		}
		if !am {
			va, vb := c.Floats[a], c.Floats[b]
			if va < vb {
				return -1
			}
			if va > vb {
				return 1
			}
		}
		return int(a) - int(b)
	})
	return idx
}

// specimenColumn draws values with heavy ties, both signed zeros, infinities,
// a wide exponent range and missing cells.
func specimenColumn(n int, seed int64) *Column {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, n)
	for i := range vals {
		switch rng.Intn(10) {
		case 0:
			vals[i] = 0
		case 1:
			vals[i] = math.Copysign(0, -1)
		case 2:
			vals[i] = math.Inf(2*rng.Intn(2) - 1)
		case 3:
			vals[i] = float64(rng.Intn(5) - 2)
		case 4:
			vals[i] = math.NaN() // marked missing by NewNumeric
		default:
			vals[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		}
	}
	return NewNumeric("x", vals)
}

// TestSortIndexRadixMatchesComparator: the radix SortIndex is the comparator
// order exactly, on both sides of the comparison-sort cutoff.
func TestSortIndexRadixMatchesComparator(t *testing.T) {
	for _, n := range []int{1, 7, radixCutoff - 1, radixCutoff, radixCutoff + 1, 20000} {
		c := specimenColumn(n, int64(n))
		got, want := c.SortIndex(), comparatorSortIndex(c)
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: radix SortIndex differs from the comparator order", n)
		}
	}
}

// TestSorterOrderBags: Order returns the non-missing rows of a multiset in
// (value, row) order with duplicates repeated, from unsorted input, on both
// sides of the comparison-sort cutoff.
func TestSorterOrderBags(t *testing.T) {
	var s Sorter
	for _, n := range []int{50, 5000} {
		rng := rand.New(rand.NewSource(int64(n)))
		for _, m := range []int{n / 10, n} {
			c := specimenColumn(n, int64(n+m))
			bag := make([]int32, m)
			for i := range bag {
				bag[i] = int32(rng.Intn(n))
			}
			rank := make([]int, n)
			for i, r := range comparatorSortIndex(c) {
				rank[r] = i
			}
			var want []int32
			for _, r := range bag {
				if !c.IsMissing(int(r)) {
					want = append(want, r)
				}
			}
			slices.SortFunc(want, func(a, b int32) int { return rank[a] - rank[b] })
			if got := s.Order(c, bag, nil); !slices.Equal(got, want) {
				t.Fatalf("n=%d m=%d: Order differs from the reference", n, m)
			}
		}
	}
}

// TestRunOrderFlagsValueChanges: RunOrder is SortIndex's non-missing prefix,
// and its bitmap flags exactly the positions whose value differs from the
// previous one as float64s, so −0 and +0 share a run.
func TestRunOrderFlagsValueChanges(t *testing.T) {
	for _, n := range []int{1, 7, 64, 65, 5000} {
		c := specimenColumn(n, int64(3*n))
		order, starts := c.RunOrder()
		present := n - c.MissingCount()
		if !slices.Equal(order, c.SortIndex()[:present]) {
			t.Fatalf("n=%d: order is not the non-missing prefix of SortIndex", n)
		}
		if len(starts) != (present+63)/64 {
			t.Fatalf("n=%d: %d bitmap words for %d rows", n, len(starts), present)
		}
		for i, r := range order {
			want := i == 0 || c.Floats[r] != c.Floats[order[i-1]]
			if got := starts[i>>6]>>(uint(i)&63)&1 == 1; got != want {
				t.Fatalf("n=%d: run start at %d is %v, want %v", n, i, got, want)
			}
		}
		if got := c.SortIndexBytes(); got != 4*n+8*len(starts) {
			t.Fatalf("n=%d: SortIndexBytes = %d, want %d", n, got, 4*n+8*len(starts))
		}
	}
	z := NewNumeric("z", []float64{0, math.Copysign(0, -1), 1})
	if _, starts := z.RunOrder(); starts[0] != 0b101 {
		t.Fatalf("signed zeros: run starts %b, want 101", starts[0])
	}
	if order, starts := NewCategorical("c", []int32{0}, []string{"a"}).RunOrder(); order != nil || starts != nil {
		t.Fatal("categorical column returned a run order")
	}
}
