package split

import (
	"sync"

	"treeserver/internal/dataset"
	"treeserver/internal/impurity"
	"treeserver/internal/obs"
)

// Scratch holds the reusable buffers of one split-finding thread. Passing a
// Scratch in a Request makes the steady-state numeric kernels allocation-free:
// the presorted walk and the sparse radix path both run at 0 allocs/op
// once the buffers have grown to the working-set size. Categorical kernels
// reuse the count matrices and group buffers, leaving only the per-candidate
// LeftSet copies that escape into returned Conditions.
//
// A Scratch is owned by one goroutine at a time. Compers check one out of the
// package pool per task (GetScratch/PutScratch); the serial trainer keeps one
// per tree build.
type Scratch struct {
	present []int32        // missing-filtered, sorted or walked row buffer
	sorter  dataset.Sorter // sparse numeric path: radix sort of the node's rows
	vals    []float64      // numeric sweep: gathered values or run ids
	ys      []int32        // gathered class codes (classification)
	fs      []float64      // gathered targets (regression)

	left, right, total *impurity.ClassCounter

	countsBuf   []int   // backing array of the level x class count matrix
	counts      [][]int // per-level views into countsBuf
	seenLevel   []bool  // level-presence flags for the count matrix
	codes       []int32 // present level codes
	moments     []impurity.MomentAccumulator
	groups      []catGroup
	prefix      []int32
	leftSet     []int32
	rightCounts []int
}

// catGroup is one categorical level ordered by a sort key (mean Y or
// P(class 1)) for Breiman prefix scans.
type catGroup struct {
	code int32
	key  float64
}

// scratchPool has no New hook so checkouts can distinguish a reuse from a
// fresh allocation — the pool hit rate is a telemetry quantity.
var scratchPool sync.Pool

// GetScratch checks a Scratch out of the shared pool.
func GetScratch() *Scratch { return GetScratchObserved(nil) }

// GetScratchObserved is GetScratch with pool-hit telemetry: a non-nil
// counter records whether the checkout reused a pooled Scratch or allocated.
func GetScratchObserved(c *obs.SplitCounters) *Scratch {
	if v := scratchPool.Get(); v != nil {
		c.ScratchGet(true)
		return v.(*Scratch)
	}
	c.ScratchGet(false)
	return new(Scratch)
}

// PutScratch returns a Scratch to the pool. The caller must not retain it.
func PutScratch(s *Scratch) { scratchPool.Put(s) }

// presentBuf returns an empty []int32 with capacity >= n.
func (s *Scratch) presentBuf(n int) []int32 {
	if cap(s.present) < n {
		s.present = make([]int32, 0, n)
	}
	return s.present[:0]
}

// numericBufs returns the three empty gather buffers of the numeric sweep,
// each with capacity >= n.
func (s *Scratch) numericBufs(n int) (vals []float64, ys []int32, fs []float64) {
	if cap(s.vals) < n {
		s.vals = make([]float64, 0, n)
	}
	if cap(s.ys) < n {
		s.ys = make([]int32, 0, n)
	}
	if cap(s.fs) < n {
		s.fs = make([]float64, 0, n)
	}
	return s.vals[:0], s.ys[:0], s.fs[:0]
}

// classCounters returns the left/right sweep counters reset for k classes.
func (s *Scratch) classCounters(k int) (left, right *impurity.ClassCounter) {
	if s.left == nil || len(s.left.Counts) != k {
		s.left = impurity.NewClassCounter(k)
		s.right = impurity.NewClassCounter(k)
	} else {
		s.left.Reset()
		s.right.Reset()
	}
	return s.left, s.right
}

// totalCounter returns the node-total counter reset for k classes.
func (s *Scratch) totalCounter(k int) *impurity.ClassCounter {
	if s.total == nil || len(s.total.Counts) != k {
		s.total = impurity.NewClassCounter(k)
	} else {
		s.total.Reset()
	}
	return s.total
}

// countMatrix returns a zeroed levels x classes count matrix plus the
// level-presence flags, both backed by reused storage.
func (s *Scratch) countMatrix(levels, classes int) ([][]int, []bool) {
	need := levels * classes
	if cap(s.countsBuf) < need {
		s.countsBuf = make([]int, need)
	} else {
		s.countsBuf = s.countsBuf[:need]
		for i := range s.countsBuf {
			s.countsBuf[i] = 0
		}
	}
	if cap(s.counts) < levels {
		s.counts = make([][]int, levels)
	}
	s.counts = s.counts[:levels]
	for i := 0; i < levels; i++ {
		s.counts[i] = s.countsBuf[i*classes : (i+1)*classes]
	}
	if cap(s.seenLevel) < levels {
		s.seenLevel = make([]bool, levels)
	}
	s.seenLevel = s.seenLevel[:levels]
	for i := range s.seenLevel {
		s.seenLevel[i] = false
	}
	return s.counts, s.seenLevel
}

// codesBuf returns an empty code buffer with capacity >= n.
func (s *Scratch) codesBuf(n int) []int32 {
	if cap(s.codes) < n {
		s.codes = make([]int32, 0, n)
	}
	return s.codes[:0]
}

// momentBuf returns a zeroed moment accumulator slice of length n.
func (s *Scratch) momentBuf(n int) []impurity.MomentAccumulator {
	if cap(s.moments) < n {
		s.moments = make([]impurity.MomentAccumulator, n)
		return s.moments
	}
	s.moments = s.moments[:n]
	for i := range s.moments {
		s.moments[i] = impurity.MomentAccumulator{}
	}
	return s.moments
}

// groupBuf returns an empty group buffer with capacity >= n.
func (s *Scratch) groupBuf(n int) []catGroup {
	if cap(s.groups) < n {
		s.groups = make([]catGroup, 0, n)
	}
	return s.groups[:0]
}

// prefixBuf returns an empty prefix buffer with capacity >= n.
func (s *Scratch) prefixBuf(n int) []int32 {
	if cap(s.prefix) < n {
		s.prefix = make([]int32, 0, n)
	}
	return s.prefix[:0]
}

// leftSetBuf returns an empty left-set buffer with capacity >= n.
func (s *Scratch) leftSetBuf(n int) []int32 {
	if cap(s.leftSet) < n {
		s.leftSet = make([]int32, 0, n)
	}
	return s.leftSet[:0]
}

// rightCountsBuf returns a zeroed class-count buffer of length k.
func (s *Scratch) rightCountsBuf(k int) []int {
	if cap(s.rightCounts) < k {
		s.rightCounts = make([]int, k)
		return s.rightCounts
	}
	s.rightCounts = s.rightCounts[:k]
	for i := range s.rightCounts {
		s.rightCounts[i] = 0
	}
	return s.rightCounts
}
