package core

import (
	"slices"
	"sync"

	"treeserver/internal/dataset"
	"treeserver/internal/split"
)

// presort is the sort-once state of one tree build: each numeric candidate
// column is sorted once, at the root, and the order is carried down the
// recursion — Guillame-Bert & Teytaud's presorted columns (1804.06755) on
// the compacted per-node copy a subtree-task holds (1910.06853).
//
// Every node's rows are one contiguous segment of rows, and for each numeric
// column k the node's rows with a value present in k, in (value, row) order
// with bag duplicates adjacent, are one contiguous run of order. A split
// stable-partitions the segment and every run by the side each row went, so
// both children's segments and runs are again contiguous and still in order:
// a node costs one O(|D_x|) gather+sweep and one O(|D_x|) partition per
// column, and never sorts. Node rows keep the relative order the caller gave,
// so order-sensitive sums (regression means and moments) are unchanged.
//
// All buffers are pooled across builds.
type presort struct {
	rows  []int32 // node rows: each node's rows are a segment, split in place
	spill []int32 // right side of a stable partition in progress
	order []int32 // numeric columns' runs, column k's root run at k*len(rows)
	runs  []span  // per depth, one span of order per numeric column
	left  []bool  // per table row: whether its node's split sent it left
	k     int     // numeric columns presorted

	sorter dataset.Sorter
}

// span is one column's run of order at one node; after the node splits,
// [lo, mid) holds the left child's run and [mid, hi) the right child's.
type span struct{ lo, mid, hi int }

var presortPool = sync.Pool{New: func() any { return new(presort) }}

func getPresort() *presort { return presortPool.Get().(*presort) }

func putPresort(ps *presort) { presortPool.Put(ps) }

// load copies the root's rows into the node row buffer, sorts every column
// of cols into its root run, and returns the root's segment.
func (ps *presort) load(tbl *dataset.Table, rows []int32, cols []*dataset.Column) []int32 {
	n := len(rows)
	ps.rows = append(ps.rows[:0], rows...)
	if cap(ps.spill) < n {
		ps.spill = make([]int32, 0, n)
	}
	ps.k = len(cols)
	ps.runs = ps.runs[:0]
	if ps.k == 0 {
		return ps.rows
	}
	if cap(ps.order) < ps.k*n {
		ps.order = make([]int32, ps.k*n)
	}
	ps.order = ps.order[:ps.k*n]
	if len(ps.left) < tbl.NumRows() {
		ps.left = make([]bool, tbl.NumRows())
	}
	for i, col := range cols {
		lo := i * n
		run := ps.sorter.Order(col, rows, ps.order[lo:lo:lo+n])
		ps.runs = append(ps.runs, span{lo: lo, hi: lo + len(run)})
	}
	return ps.rows
}

// frame returns the numeric columns' spans at the node being built at depth.
func (ps *presort) frame(depth int) []span {
	return ps.runs[depth*ps.k : (depth+1)*ps.k]
}

// run returns a span's rows.
func (ps *presort) run(s span) []int32 { return ps.order[s.lo:s.hi] }

// partition stably splits the node's rows in place by cond — left rows
// first, each side in its prior order — and returns how many went left. When
// both sides are non-empty it then splits every numeric run of the node's
// frame the same way.
func (ps *presort) partition(cond *split.Condition, col *dataset.Column, rows []int32, depth int) int {
	spill := ps.spill[:0]
	nl := 0
	for _, r := range rows {
		goesLeft := cond.GoesLeft(col, int(r))
		if ps.k > 0 {
			ps.left[r] = goesLeft
		}
		if goesLeft {
			rows[nl] = r
			nl++
		} else {
			spill = append(spill, r)
		}
	}
	copy(rows[nl:], spill)
	if nl == 0 || nl == len(rows) {
		return nl
	}
	frame := ps.frame(depth)
	for i := range frame {
		s := &frame[i]
		s.mid = s.lo + ps.stable(ps.order[s.lo:s.hi])
	}
	return nl
}

// stable splits one run in place by the rows' marks, preserving order on
// each side, and returns the left side's length.
func (ps *presort) stable(run []int32) int {
	spill := ps.spill[:0]
	nl := 0
	for _, r := range run {
		if ps.left[r] {
			run[nl] = r
			nl++
		} else {
			spill = append(spill, r)
		}
	}
	copy(run[nl:], spill)
	return nl
}

// descend writes the frame of the child at depth+1 — the left or right part
// of every span of the parent's frame at depth.
func (ps *presort) descend(depth int, left bool) {
	if ps.k == 0 {
		return
	}
	if need := (depth + 2) * ps.k; len(ps.runs) < need {
		ps.runs = slices.Grow(ps.runs, need-len(ps.runs))[:need]
	}
	parent, child := ps.frame(depth), ps.frame(depth+1)
	for i, p := range parent {
		if left {
			child[i] = span{lo: p.lo, hi: p.mid}
		} else {
			child[i] = span{lo: p.mid, hi: p.hi}
		}
	}
}
