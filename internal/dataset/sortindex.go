package dataset

import (
	"cmp"
	"math"
	"slices"
	"sync"
)

// SortIndex returns the column's presorted row permutation: every row index
// of the column ordered by ascending value, ties broken by row index, and
// missing rows last (also ordered by row index). Split finders walk this
// permutation filtered by node membership to evaluate numeric splits in O(n)
// without re-sorting per node.
//
// The permutation is computed once per column and cached. Columns are
// treated as immutable after construction (the repo never mutates values in
// place), so the cache is never invalidated; gathered shards are fresh
// Column objects and build their own index on first use.
//
// Concurrent callers are safe: a race between two builders publishes one of
// two identical permutations. Returns nil for categorical columns.
func (c *Column) SortIndex() []int32 {
	if c.Kind != Numeric {
		return nil
	}
	if p := c.sortIdx.Load(); p != nil {
		return *p
	}
	s := sorterPool.Get().(*Sorter)
	defer sorterPool.Put(s)
	a := s.keyBuf(len(c.Floats))
	for r, v := range c.Floats {
		if !c.IsMissing(r) {
			a = append(a, keyRow{sortKey(v), int32(r)})
		}
	}
	idx := make([]int32, 0, len(c.Floats))
	for _, kr := range s.sort(a, true) {
		idx = append(idx, kr.row)
	}
	for r := range c.Floats {
		if c.IsMissing(r) {
			idx = append(idx, int32(r))
		}
	}
	c.sortIdx.Store(&idx)
	return idx
}

// HasSortIndex reports whether the presorted permutation has already been
// built, without building it. Used by tests and memory accounting.
func (c *Column) HasSortIndex() bool { return c.sortIdx.Load() != nil }

// SortIndexBytes returns the memory footprint of the cached permutation:
// 4 bytes per row once built, 0 before.
func (c *Column) SortIndexBytes() int {
	if p := c.sortIdx.Load(); p != nil {
		return 4 * len(*p)
	}
	return 0
}

// radixCutoff is the run length below which Order sorts by comparison: every
// radix pass clears and scans 256 buckets whatever the run length, which
// dominates short runs such as a 64-row subtree-task.
const radixCutoff = 2048

// keyRow is one row tagged with its sort key.
type keyRow struct {
	key uint64
	row int32
}

func cmpKeyRow(a, b keyRow) int {
	if c := cmp.Compare(a.key, b.key); c != 0 {
		return c
	}
	return cmp.Compare(a.row, b.row)
}

// sortKey maps v to a uint64 whose unsigned order is v's numeric order, with
// −0 folded onto +0 so the two compare equal, as they do as float64s.
func sortKey(v float64) uint64 {
	if v == 0 {
		v = 0
	}
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// sorterPool recycles SortIndex's sort buffers from column to column.
var sorterPool = sync.Pool{New: func() any { return new(Sorter) }}

// Sorter holds the reusable buffers of Order. The zero value is ready to use;
// a Sorter is owned by one goroutine at a time.
type Sorter struct {
	a, b   []keyRow
	counts [12][256]int32 // radix histograms: 4 row bytes, then 8 key bytes
}

// Order appends to dst the rows of the multiset rows whose value in c is not
// missing, in ascending (value, row) order with each row repeated by its
// multiplicity, and returns the extended slice. rows may be in any order. The
// rows are sorted with a stable LSD radix sort over order-preserving uint64
// images of their values (a comparison sort below radixCutoff).
func (s *Sorter) Order(c *Column, rows []int32, dst []int32) []int32 {
	a := s.keyBuf(len(rows))
	ascending := true
	for i, r := range rows {
		if i > 0 && r < rows[i-1] {
			ascending = false
		}
		if !c.IsMissing(int(r)) {
			a = append(a, keyRow{sortKey(c.Floats[r]), r})
		}
	}
	for _, kr := range s.sort(a, ascending) {
		dst = append(dst, kr.row)
	}
	return dst
}

// keyBuf returns an empty key buffer with capacity >= n.
func (s *Sorter) keyBuf(n int) []keyRow {
	if cap(s.a) < n {
		s.a = make([]keyRow, 0, n)
		s.b = make([]keyRow, n)
	}
	return s.a[:0]
}

// sort orders a, built in keyBuf, by (key, row); ascending reports that a's
// rows are already in increasing order. The result aliases one of s's
// buffers.
func (s *Sorter) sort(a []keyRow, ascending bool) []keyRow {
	if len(a) < radixCutoff {
		slices.SortFunc(a, cmpKeyRow)
		return a
	}
	return s.radix(a, s.b[:len(a)], ascending)
}

// radix sorts a by (key, row) with LSD passes over the row bytes (skipped
// when the rows arrived ascending, since every pass is stable) and then the
// key bytes, skipping any pass whose byte is the same in every element. tmp
// must be as long as a; the sorted run is returned in one of the two.
func (s *Sorter) radix(a, tmp []keyRow, ascending bool) []keyRow {
	counts := &s.counts
	clear(counts[:])
	for _, kr := range a {
		r := uint32(kr.row)
		counts[0][byte(r)]++
		counts[1][byte(r>>8)]++
		counts[2][byte(r>>16)]++
		counts[3][byte(r>>24)]++
		k := kr.key
		for p := 4; p < 12; p++ {
			counts[p][byte(k)]++
			k >>= 8
		}
	}
	first := 0
	if ascending {
		first = 4
	}
	n := int32(len(a))
	for p := first; p < 12; p++ {
		cnt := &counts[p]
		trivial := false
		var sum int32
		for i, c := range cnt {
			if c == n {
				trivial = true
				break
			}
			cnt[i] = sum
			sum += c
		}
		if trivial {
			continue
		}
		if p < 4 {
			shift := uint(8 * p)
			for _, kr := range a {
				d := byte(uint32(kr.row) >> shift)
				tmp[cnt[d]] = kr
				cnt[d]++
			}
		} else {
			shift := uint(8 * (p - 4))
			for _, kr := range a {
				d := byte(kr.key >> shift)
				tmp[cnt[d]] = kr
				cnt[d]++
			}
		}
		a, tmp = tmp, a
	}
	return a
}
