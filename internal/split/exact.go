package split

import (
	"slices"

	"treeserver/internal/dataset"
	"treeserver/internal/impurity"
	"treeserver/internal/obs"
)

// DefaultMaxExhaustiveLevels bounds full subset enumeration for categorical
// attributes in classification. Above this, the finder restricts |Sl| = 1 as
// the paper describes for large |Si|.
const DefaultMaxExhaustiveLevels = 10

// DensityThreshold is the minimum |D_x| / tableRows density at which
// FindBest walks the column's run-flagged presorted order instead of sorting
// the node's rows. The walk costs O(tableRows) whatever the node's size, the
// sort O(|D_x|). BenchmarkFindBestDensity times both over densities
// 0.01–1.0 of a 100k-row table with bag duplicates (2-core Xeon, Go 1.24):
// at 0.05 the sort took 0.5–0.75× the walk's time, at 0.1 it was even for a
// class target and 1.2× for a numeric one, and from 0.2 up the walk won by
// 1.3–2.7×. The crossover is thus just below 0.1.
const DensityThreshold = 0.1

// Dense reports whether a node of nodeRows rows over a table of tableRows
// rows clears the density threshold — callers use it to decide whether
// building a RowSet for the node is worth the bookkeeping.
func Dense(nodeRows, tableRows int) bool {
	return tableRows > 0 && float64(nodeRows) >= DensityThreshold*float64(tableRows)
}

// Request carries everything needed to find one column's best split at one
// node. Rows index into Col and Y, which must be in the same coordinate
// system (both full-table columns, or both gathered shards).
type Request struct {
	Col        *dataset.Column
	ColIdx     int // value recorded in the resulting Condition
	Y          *dataset.Column
	Rows       []int32
	Measure    impurity.Measure
	NumClasses int // classes in Y for classification; ignored for regression
	// MaxExhaustiveLevels overrides DefaultMaxExhaustiveLevels when > 0.
	MaxExhaustiveLevels int
	// RowSet, when non-nil, must hold exactly the multiset of Rows (same
	// coordinate system, same multiplicities). It lets numeric columns of
	// dense nodes (see DensityThreshold) walk Col.RunOrder filtered by
	// membership — O(tableRows), no sort, no allocation — instead of sorting
	// Rows.
	RowSet *dataset.RowSet
	// Scratch provides reusable buffers so steady-state numeric kernels run
	// allocation-free. nil is allowed: a private scratch is used and its
	// buffers are garbage afterwards.
	Scratch *Scratch
	// Counters, when non-nil, receives one dispatch count per FindBest call
	// (fast path vs sort+sweep fallback vs categorical). nil disables
	// telemetry at the cost of a single pointer check.
	Counters *obs.SplitCounters
}

func (r *Request) maxExhaustive() int {
	if r.MaxExhaustiveLevels > 0 {
		return r.MaxExhaustiveLevels
	}
	return DefaultMaxExhaustiveLevels
}

// usePresorted reports whether the presorted numeric walk engages: a
// consistent RowSet is present and the node clears the density threshold.
func (r *Request) usePresorted() bool {
	if r.Col.Kind != dataset.Numeric || r.RowSet == nil {
		return false
	}
	n := r.Col.Len()
	if n == 0 || r.RowSet.Cap() != n || len(r.Rows) < 2 {
		return false
	}
	return float64(len(r.Rows)) >= DensityThreshold*float64(n)
}

// FindBest computes the exact best split condition of one column over the
// rows D_x, dispatching on the (attribute kind, target kind) pair per
// Appendix B. Rows with a missing attribute value are excluded from impurity
// evaluation and then routed with the larger child; the returned counts
// include them so the master can classify child tasks against τ_D and τ_dfs.
//
// Numeric columns have two equivalent paths: a membership walk over the
// column's run-flagged presorted order for dense nodes (see Request.RowSet)
// and a radix sort of the node's rows for sparse ones. Both feed the same
// boundary sweep over the same (value, row) order, so they agree bit-for-bit
// with each other and with FindBestSorted.
func FindBest(req Request) Candidate {
	s := req.Scratch
	if s == nil {
		s = new(Scratch)
	}
	if req.Col.Kind == dataset.Numeric {
		if req.usePresorted() {
			req.Counters.DispatchFast()
			return bestNumericPresorted(req, s)
		}
		return bestNumericSorted(req, s)
	}
	present := req.Rows
	missN := 0
	if req.Col.MissingCount() > 0 {
		buf := s.presentBuf(len(req.Rows))
		for _, r := range req.Rows {
			if req.Col.IsMissing(int(r)) {
				missN++
			} else {
				buf = append(buf, r)
			}
		}
		s.present = buf
		present = buf
	}
	if len(present) < 2 {
		return Candidate{}
	}
	var cand Candidate
	if req.Y.Kind == dataset.Numeric {
		req.Counters.DispatchCategorical()
		cand = bestCategoricalRegression(req, present, s)
	} else {
		req.Counters.DispatchCategorical()
		cand = bestCategoricalClassification(req, present, s)
	}
	return routeMissing(cand, missN)
}

// routeMissing applies the shared epilogue: missing rows join the larger
// child and the counts are adjusted to cover all of D_x.
func routeMissing(cand Candidate, missN int) Candidate {
	if !cand.Valid {
		return cand
	}
	cand.Cond.MissingLeft = cand.LeftN >= cand.RightN
	if cand.Cond.MissingLeft {
		cand.LeftN += missN
	} else {
		cand.RightN += missN
	}
	return cand
}

// bestNumericPresorted is the dense-node path of Case 1: walk the column's
// run-flagged order once, keeping only member rows, and sweep the gathered
// (run id, target) sequence. Run ids compare equal exactly where values do,
// so the sweep picks the same boundary it would over the values, while the
// walk reads nothing at a random row but the membership count and, for
// members, the target. The threshold is then resolved from the two member
// rows at the winning boundary. O(tableRows) per node with zero steady-state
// allocations; the sort was paid once per column at first use.
func bestNumericPresorted(req Request, s *Scratch) Candidate {
	order, starts := req.Col.RunOrder()
	rs := req.RowSet
	// Every position writes at j and only members advance it, so the walk
	// has no branch on membership; the one spare slot takes the writes
	// after the last member.
	vals, ys, fs := s.numericBufs(len(req.Rows) + 1)
	rows := s.presentBuf(len(req.Rows) + 1)
	vals, rows = vals[:cap(vals)], rows[:cap(rows)]
	j, run := 0, -1
	for k, w := range starts {
		for _, r := range order[k*64 : min(k*64+64, len(order))] {
			run += int(w & 1)
			w >>= 1
			c := int(rs.Count(r))
			v := float64(run)
			vals[j], rows[j] = v, r
			if c > 1 { // a bag duplicate
				for end := j + c; j < end; j++ {
					vals[j], rows[j] = v, r
				}
				continue
			}
			j += c
		}
	}
	vals, rows = vals[:j], rows[:j]
	if req.Y.Kind == dataset.Categorical {
		for _, r := range rows {
			ys = append(ys, req.Y.Cats[r])
		}
	} else {
		for _, r := range rows {
			fs = append(fs, req.Y.Floats[r])
		}
	}
	s.vals, s.ys, s.fs, s.present = vals, ys, fs, rows
	if len(vals) < 2 {
		return Candidate{}
	}
	cand := sweepNumeric(req, vals, ys, fs, s)
	if cand.Valid {
		b := cand.LeftN - 1
		cand.Cond.Threshold = midpoint(req.Col.Floats[rows[b]], req.Col.Floats[rows[b+1]])
	}
	return routeMissing(cand, rs.Len()-len(vals))
}

// bestNumericSorted is the sparse-node path of Case 1: radix-sort the node's
// non-missing rows with the scratch's Sorter, then run the sorted-run kernel.
// Sorting |D_x| rows beats walking the whole table when the node holds a
// small fraction of it.
func bestNumericSorted(req Request, s *Scratch) Candidate {
	sorted := s.sorter.Order(req.Col, req.Rows, s.presentBuf(len(req.Rows)))
	s.present = sorted
	if len(sorted) < 2 {
		return Candidate{}
	}
	req.Counters.DispatchFallback()
	missing := len(req.Rows) - len(sorted)
	req.Rows, req.Scratch = sorted, s
	return FindBestSorted(req, missing)
}

// FindBestSorted is FindBest's numeric kernel for callers that keep each
// node's rows presorted, as the serial trainer does: req.Rows must hold the
// node's rows whose value in req.Col is not missing, in ascending (value, row)
// order with duplicates adjacent, and missing counts the node's rows left out
// for a missing value. One O(|Rows|) gather feeds the same sweep both FindBest
// paths use, so all three agree bit-for-bit. req.RowSet is ignored.
func FindBestSorted(req Request, missing int) Candidate {
	s := req.Scratch
	if s == nil {
		s = new(Scratch)
	}
	vals, ys, fs := s.numericBufs(len(req.Rows))
	for _, r := range req.Rows {
		vals = append(vals, req.Col.Floats[r])
	}
	if req.Y.Kind == dataset.Categorical {
		for _, r := range req.Rows {
			ys = append(ys, req.Y.Cats[r])
		}
	} else {
		for _, r := range req.Rows {
			fs = append(fs, req.Y.Floats[r])
		}
	}
	s.vals, s.ys, s.fs = vals, ys, fs
	if len(vals) < 2 {
		return Candidate{}
	}
	return routeMissing(sweepNumeric(req, vals, ys, fs, s), missing)
}

// sweepNumeric evaluates every boundary between distinct values of the
// already-sorted run with incremental accumulators — O(1) per row. Every
// numeric path funnels here, which is what makes them bit-for-bit equal. The
// best boundary is tracked as scalars (the first of equal minima wins, as
// Candidate.Better rules within one column) and its Condition is built once.
func sweepNumeric(req Request, vals []float64, ys []int32, fs []float64, s *Scratch) Candidate {
	n := len(vals)
	best, bestImp := -1, 0.0
	if req.Y.Kind == dataset.Categorical {
		left, right := s.classCounters(req.NumClasses)
		for _, y := range ys {
			right.Add(y)
		}
		for i := 0; i < n-1; i++ {
			left.Add(ys[i])
			right.Remove(ys[i])
			if vals[i] == vals[i+1] {
				continue
			}
			imp := impurity.WeightedSplit(left.N, left.Impurity(req.Measure), right.N, right.Impurity(req.Measure))
			if best < 0 || imp < bestImp {
				best, bestImp = i, imp
			}
		}
	} else {
		var left, right impurity.MomentAccumulator
		for _, f := range fs {
			right.Add(f)
		}
		for i := 0; i < n-1; i++ {
			left.Add(fs[i])
			right.Remove(fs[i])
			if vals[i] == vals[i+1] {
				continue
			}
			imp := impurity.WeightedSplit(left.N, left.Impurity(), right.N, right.Impurity())
			if best < 0 || imp < bestImp {
				best, bestImp = i, imp
			}
		}
	}
	if best < 0 {
		return Candidate{}
	}
	return Candidate{
		Cond:     NewNumericCondition(req.ColIdx, midpoint(vals[best], vals[best+1]), false),
		Impurity: bestImp, LeftN: best + 1, RightN: n - best - 1, Valid: true,
	}
}

// midpoint returns a threshold strictly between lo and hi that keeps lo on
// the left side, falling back to lo when the mean rounds onto hi or out of
// the open interval.
func midpoint(lo, hi float64) float64 {
	m := lo + (hi-lo)/2
	if m < lo || m >= hi {
		return lo
	}
	return m
}

// cmpCatGroup orders categorical groups by (sort key, level code), the
// deterministic order of the Breiman prefix scans.
func cmpCatGroup(a, b catGroup) int {
	if a.key != b.key {
		if a.key < b.key {
			return -1
		}
		return 1
	}
	return int(a.code) - int(b.code)
}

// bestCategoricalRegression handles Case 2 via Breiman's ordering trick:
// group rows by category, sort groups by mean Y, and the optimal subset
// split is a prefix of that order — one pass over the groups.
func bestCategoricalRegression(req Request, rows []int32, s *Scratch) Candidate {
	levels := req.Col.NumLevels()
	moments := s.momentBuf(levels)
	for _, r := range rows {
		moments[req.Col.Cats[r]].Add(req.Y.Floats[r])
	}
	return bestCategoricalRegressionFromMoments(req.ColIdx, moments, s)
}

// bestCategoricalRegressionFromMoments runs the Breiman prefix scan over
// already-aggregated per-level moments. Shared by the exact row kernel above
// and the histogram kernel, which rebuilds identical moments from bins.
func bestCategoricalRegressionFromMoments(colIdx int, moments []impurity.MomentAccumulator, s *Scratch) Candidate {
	groups := s.groupBuf(len(moments))
	for code := range moments {
		if moments[code].N > 0 {
			groups = append(groups, catGroup{int32(code), moments[code].Mean()})
		}
	}
	s.groups = groups
	if len(groups) < 2 {
		return Candidate{}
	}
	slices.SortFunc(groups, cmpCatGroup)

	var left, right impurity.MomentAccumulator
	for _, g := range groups {
		m := moments[g.code]
		right.N += m.N
		right.Sum += m.Sum
		right.SumSq += m.SumSq
	}
	// Score every prefix first; the winning Condition is materialised once at
	// the end, so the scan itself stays allocation-free.
	best := Candidate{}
	bestLen := 0
	for i := 0; i < len(groups)-1; i++ {
		m := moments[groups[i].code]
		left.N += m.N
		left.Sum += m.Sum
		left.SumSq += m.SumSq
		right.N -= m.N
		right.Sum -= m.Sum
		right.SumSq -= m.SumSq
		imp := impurity.WeightedSplit(left.N, left.Impurity(), right.N, right.Impurity())
		if !best.Valid || imp < best.Impurity {
			best = Candidate{Impurity: imp, LeftN: left.N, RightN: right.N, Valid: true}
			bestLen = i + 1
		}
	}
	if best.Valid {
		prefix := s.prefixBuf(bestLen)
		for i := 0; i < bestLen; i++ {
			prefix = append(prefix, groups[i].code)
		}
		s.prefix = prefix
		best.Cond = NewCategoricalCondition(colIdx, prefix, false)
	}
	return best
}

// bestCategoricalClassification handles Case 3. For small |Si| it enumerates
// every subset exactly (fixing the first present level's side to skip mirror
// duplicates). For large |Si| with a binary target, Breiman's theorem makes
// ordering levels by P(class 1) exact with a one-pass prefix scan, just like
// the regression case; only the multiclass large-|Si| case falls back to the
// paper's |Sl| = 1 restriction.
func bestCategoricalClassification(req Request, rows []int32, s *Scratch) Candidate {
	levels := req.Col.NumLevels()
	counts, seen := s.countMatrix(levels, req.NumClasses) // counts[code][class]
	presentCodes := s.codesBuf(levels)
	for _, r := range rows {
		code := req.Col.Cats[r]
		if !seen[code] {
			seen[code] = true
			presentCodes = append(presentCodes, code)
		}
		counts[code][req.Y.Cats[r]]++
	}
	s.codes = presentCodes
	if len(presentCodes) < 2 {
		return Candidate{}
	}
	slices.Sort(presentCodes)
	return bestCategoricalClassificationFromCounts(
		req.ColIdx, counts, presentCodes, req.NumClasses, req.Measure, req.maxExhaustive(), s)
}

// bestCategoricalClassificationFromCounts runs the subset search over an
// already-aggregated level x class count matrix and its sorted present
// codes. Shared by the exact row kernel above and the histogram kernel,
// which rebuilds an identical matrix from bins — identical counts make the
// two paths agree bit-for-bit.
func bestCategoricalClassificationFromCounts(colIdx int, counts [][]int, presentCodes []int32, numClasses int, measure impurity.Measure, maxExhaustive int, s *Scratch) Candidate {
	total := s.totalCounter(numClasses)
	for _, code := range presentCodes {
		for class, n := range counts[code] {
			total.AddN(int32(class), n)
		}
	}

	// evaluate scores one bipartition without building a Condition; the
	// winner's Condition is materialised once per call so the enumeration
	// itself stays allocation-free.
	left, _ := s.classCounters(numClasses)
	evaluate := func(leftSet []int32) (imp float64, leftN, rightN int, ok bool) {
		left.Reset()
		for _, code := range leftSet {
			for class, n := range counts[code] {
				left.AddN(int32(class), n)
			}
		}
		rightCounts := s.rightCountsBuf(numClasses)
		for class := range rightCounts {
			rightCounts[class] = total.Counts[class] - left.Counts[class]
		}
		rightN = total.N - left.N
		if left.N == 0 || rightN == 0 {
			return 0, 0, 0, false
		}
		var rightImp float64
		if measure == impurity.Entropy {
			rightImp = impurity.EntropyFromCounts(rightCounts)
		} else {
			rightImp = impurity.GiniFromCounts(rightCounts)
		}
		imp = impurity.WeightedSplit(left.N, left.Impurity(measure), rightN, rightImp)
		return imp, left.N, rightN, true
	}

	best := Candidate{}
	if len(presentCodes) <= maxExhaustive {
		// Enumerate subsets of presentCodes[1:]; presentCodes[0] is pinned to
		// the right side, which covers every distinct bipartition once.
		rest := presentCodes[1:]
		bestMask := 0
		for mask := 1; mask < 1<<uint(len(rest)); mask++ {
			leftSet := s.leftSetBuf(len(rest))
			for b, code := range rest {
				if mask&(1<<uint(b)) != 0 {
					leftSet = append(leftSet, code)
				}
			}
			s.leftSet = leftSet
			if imp, ln, rn, ok := evaluate(leftSet); ok && (!best.Valid || imp < best.Impurity) {
				best = Candidate{Impurity: imp, LeftN: ln, RightN: rn, Valid: true}
				bestMask = mask
			}
		}
		if best.Valid {
			leftSet := s.leftSetBuf(len(rest))
			for b, code := range rest {
				if bestMask&(1<<uint(b)) != 0 {
					leftSet = append(leftSet, code)
				}
			}
			s.leftSet = leftSet
			best.Cond = NewCategoricalCondition(colIdx, leftSet, false)
		}
		return best
	}
	if numClasses == 2 {
		// Breiman ordering: sort present levels by P(class 1) and scan
		// prefixes — exact for any concave impurity (Gini, entropy).
		groups := s.groupBuf(len(presentCodes))
		for _, code := range presentCodes {
			n := counts[code][0] + counts[code][1]
			groups = append(groups, catGroup{code, float64(counts[code][1]) / float64(n)})
		}
		s.groups = groups
		slices.SortFunc(groups, cmpCatGroup)
		prefix := s.prefixBuf(len(groups))
		bestLen := 0
		for i := 0; i < len(groups)-1; i++ {
			prefix = append(prefix, groups[i].code)
			if imp, ln, rn, ok := evaluate(prefix); ok && (!best.Valid || imp < best.Impurity) {
				best = Candidate{Impurity: imp, LeftN: ln, RightN: rn, Valid: true}
				bestLen = i + 1
			}
		}
		s.prefix = prefix
		if best.Valid {
			best.Cond = NewCategoricalCondition(colIdx, prefix[:bestLen], false)
		}
		return best
	}
	var bestCode int32
	for _, code := range presentCodes {
		leftSet := s.leftSetBuf(1)
		leftSet = append(leftSet, code)
		s.leftSet = leftSet
		if imp, ln, rn, ok := evaluate(leftSet); ok && (!best.Valid || imp < best.Impurity) {
			best = Candidate{Impurity: imp, LeftN: ln, RightN: rn, Valid: true}
			bestCode = code
		}
	}
	if best.Valid {
		leftSet := s.leftSetBuf(1)
		leftSet = append(leftSet, bestCode)
		s.leftSet = leftSet
		best.Cond = NewCategoricalCondition(colIdx, leftSet, false)
	}
	return best
}
