package core

import (
	"math/rand"
	"slices"

	"treeserver/internal/dataset"
	"treeserver/internal/impurity"
	"treeserver/internal/split"
)

// Params are the model hyperparameters shared by local and distributed
// training. The zero value is not usable; call Defaults or fill explicitly.
type Params struct {
	// MaxDepth is dmax, the maximum node depth (root = 0 splits at depth 0;
	// leaves appear at depth <= MaxDepth). <= 0 means unlimited.
	MaxDepth int
	// MinLeaf is τ_leaf: a node with |D_x| <= MinLeaf becomes a leaf.
	MinLeaf int
	// Measure scores splits: Gini/Entropy for classification, Variance for
	// regression (forced automatically when the target is numeric).
	Measure impurity.Measure
	// Candidates restricts split search to these column indexes (the paper's
	// C ⊆ A). nil means all non-target columns.
	Candidates []int
	// ExtraTrees selects completely-random split drawing (Appendix F): one
	// freshly resampled column per node with a random split value.
	ExtraTrees bool
	// Seed drives all randomness (extra-trees draws). Same seed, same tree.
	Seed int64
	// MaxExhaustiveLevels bounds subset enumeration for categorical splits.
	MaxExhaustiveLevels int
	// HistMaxBins > 0 selects the serial histogram splitter: numeric columns
	// are discretised once per tree into at most HistMaxBins sketch-proposed
	// bins and every node is scored from pooled bin histograms instead of the
	// exact sweep. 0 keeps exact training. Ignored under ExtraTrees, whose
	// random draws never sweep.
	HistMaxBins int
}

// Defaults returns the paper's default model parameters: dmax = 10,
// τ_leaf = 1, Gini for classification / variance for regression.
func Defaults() Params {
	return Params{MaxDepth: 10, MinLeaf: 1, Measure: impurity.Gini}
}

// normalise resolves per-table parameter defaults.
func (p Params) normalise(tbl *dataset.Table) Params {
	if tbl.Task() == dataset.Regression {
		p.Measure = impurity.Variance
	} else if !p.Measure.ForClassification() {
		p.Measure = impurity.Gini
	}
	if p.MinLeaf < 1 {
		p.MinLeaf = 1
	}
	if p.Candidates == nil {
		p.Candidates = tbl.FeatureIndexes()
	}
	return p
}

// TrainLocal builds a decision tree over the given rows of the table on a
// single thread. This is exactly the computation a subtree-task performs on
// its key worker after collecting D_x, and it is the serial reference the
// distributed engine must agree with. rows may repeat (bootstrap bags) and
// come in any order; the caller's slice is not modified.
//
// Exact training sorts each numeric candidate column once, at the root, and
// carries the order down the recursion (see presort), so no node sorts.
func TrainLocal(tbl *dataset.Table, rows []int32, params Params) *Tree {
	b := newBuilder(tbl, params)
	b.scratch = split.GetScratch()
	b.ps = getPresort()
	defer func() {
		split.PutScratch(b.scratch)
		putPresort(b.ps)
		b.scratch, b.ps = nil, nil
	}()
	root := b.build(b.ps.load(tbl, rows, b.numericCandidates()), 0)
	return b.finish(root)
}

// builder holds the shared state of one tree construction.
type builder struct {
	tbl        *dataset.Table
	params     Params
	rng        *rand.Rand
	nextID     int32
	numClasses int
	maxDepth   int

	// scratch is the pooled split-kernel buffer set reused across every
	// node of this (single-threaded) build.
	scratch *split.Scratch
	// ps holds the node row buffer and, under exact training, every numeric
	// candidate column's presorted runs.
	ps *presort
	// binned holds the per-candidate-column binned images when HistMaxBins
	// selects the histogram splitter; nil under exact training.
	binned map[int]*split.BinnedColumn
}

func newBuilder(tbl *dataset.Table, params Params) *builder {
	params = params.normalise(tbl)
	b := &builder{
		tbl:        tbl,
		params:     params,
		rng:        rand.New(rand.NewSource(params.Seed)),
		numClasses: tbl.NumClasses(),
	}
	if params.HistMaxBins > 0 && !params.ExtraTrees {
		b.binned = make(map[int]*split.BinnedColumn, len(b.params.Candidates))
		for _, colIdx := range b.params.Candidates {
			col := tbl.Cols[colIdx]
			bins := split.ProposeBins(colIdx, col, params.HistMaxBins)
			b.binned[colIdx] = split.BinColumn(col, bins)
		}
	}
	return b
}

// numericCandidates lists the numeric candidate columns the exact kernel
// presorts, in candidate order; nil when nodes are scored some other way.
func (b *builder) numericCandidates() []*dataset.Column {
	if b.params.ExtraTrees || b.binned != nil {
		return nil
	}
	var cols []*dataset.Column
	for _, colIdx := range b.params.Candidates {
		if col := b.tbl.Cols[colIdx]; col.Kind == dataset.Numeric {
			cols = append(cols, col)
		}
	}
	return cols
}

func (b *builder) finish(root *Node) *Tree {
	return &Tree{
		Root:       root,
		Task:       b.tbl.Task(),
		NumClasses: b.numClasses,
		NumNodes:   int(b.nextID),
		MaxDepth:   b.maxDepth,
	}
}

// newNode allocates a node with its prediction computed from the rows.
func (b *builder) newNode(rows []int32, depth int) *Node {
	n := &Node{ID: b.nextID, Depth: depth, N: len(rows)}
	b.nextID++
	if depth > b.maxDepth {
		b.maxDepth = depth
	}
	FillPrediction(n, b.tbl, rows, b.numClasses)
	return n
}

// FillPrediction computes the node's PMF/Class or Mean from the rows. It is
// exported for the distributed engine, which creates nodes from column-task
// results on the master.
func FillPrediction(n *Node, tbl *dataset.Table, rows []int32, numClasses int) {
	y := tbl.Y()
	if tbl.Task() == dataset.Classification {
		cc := impurity.NewClassCounter(numClasses)
		for _, r := range rows {
			cc.Add(y.Cats[r])
		}
		n.PMF = cc.PMF()
		n.Class = cc.Majority()
		return
	}
	var m impurity.MomentAccumulator
	for _, r := range rows {
		m.Add(y.Floats[r])
	}
	n.Mean = m.Mean()
}

// ShouldStop evaluates the leaf conditions of Section II: pure node,
// |D_x| <= τ_leaf, or depth at dmax.
func ShouldStop(tbl *dataset.Table, rows []int32, depth int, params Params) bool {
	if len(rows) <= params.MinLeaf {
		return true
	}
	if params.MaxDepth > 0 && depth >= params.MaxDepth {
		return true
	}
	return IsPure(tbl, rows)
}

// IsPure reports whether all rows share one Y value.
func IsPure(tbl *dataset.Table, rows []int32) bool {
	if len(rows) <= 1 {
		return true
	}
	y := tbl.Y()
	if y.Kind == dataset.Categorical {
		first := y.Cats[rows[0]]
		for _, r := range rows[1:] {
			if y.Cats[r] != first {
				return false
			}
		}
		return true
	}
	first := y.Floats[rows[0]]
	for _, r := range rows[1:] {
		if y.Floats[r] != first {
			return false
		}
	}
	return true
}

func (b *builder) build(rows []int32, depth int) *Node {
	n := b.newNode(rows, depth)
	if ShouldStop(b.tbl, rows, depth, b.params) {
		return n
	}
	best := b.bestSplit(rows, depth)
	if !best.Valid {
		return n
	}
	col := b.tbl.Cols[best.Cond.Col]
	n.Cond = &best.Cond
	n.SeenCodes = SeenCodes(col, rows)
	nl := b.ps.partition(&best.Cond, col, rows, depth)
	if nl == 0 || nl == len(rows) { // defensive: splitter guarantees both non-empty
		n.Cond, n.SeenCodes = nil, nil
		return n
	}
	b.ps.descend(depth, true)
	n.Left = b.build(rows[:nl], depth+1)
	b.ps.descend(depth, false)
	n.Right = b.build(rows[nl:], depth+1)
	return n
}

// bestSplit searches candidate columns for the best split at the node. Under
// exact training a numeric column is scored from its presorted run at this
// depth; categorical columns take the row scan.
func (b *builder) bestSplit(rows []int32, depth int) split.Candidate {
	if b.params.ExtraTrees {
		return b.randomSplit(rows)
	}
	if b.binned != nil {
		return b.histSplit(rows)
	}
	runs := b.ps.frame(depth)
	best := split.Candidate{}
	for _, colIdx := range b.params.Candidates {
		req := split.Request{
			Col: b.tbl.Cols[colIdx], ColIdx: colIdx,
			Y: b.tbl.Y(), Rows: rows,
			Measure: b.params.Measure, NumClasses: b.numClasses,
			MaxExhaustiveLevels: b.params.MaxExhaustiveLevels,
			Scratch:             b.scratch,
		}
		var cand split.Candidate
		if req.Col.Kind == dataset.Numeric {
			req.Rows = b.ps.run(runs[0])
			cand = split.FindBestSorted(req, len(rows)-len(req.Rows))
			runs = runs[1:]
		} else {
			cand = split.FindBest(req)
		}
		if cand.Better(best) {
			best = cand
		}
	}
	return best
}

// histSplit scores the node from per-column bin histograms — the serial form
// of hist mode. Direct fills only: the single-threaded build never holds a
// sibling pair, so subtraction would only add cache bookkeeping.
func (b *builder) histSplit(rows []int32) split.Candidate {
	classes := 0
	if b.tbl.Task() == dataset.Classification {
		classes = b.numClasses
	}
	best := split.Candidate{}
	for _, colIdx := range b.params.Candidates {
		bc := b.binned[colIdx]
		h := split.GetHist(bc.Bins.NumBins, classes)
		h.Fill(bc, b.tbl.Y(), rows)
		cand := split.BestFromHist(bc.Bins, h, b.params.Measure, b.params.MaxExhaustiveLevels, b.scratch)
		split.PutHist(h)
		if cand.Better(best) {
			best = cand
		}
	}
	return best
}

// randomSplit implements extra-trees node splitting: resample one column
// uniformly from all features and draw a random split, retrying over a
// random order of the remaining columns when the draw is degenerate.
func (b *builder) randomSplit(rows []int32) split.Candidate {
	order := b.rng.Perm(len(b.params.Candidates))
	for _, i := range order {
		colIdx := b.params.Candidates[i]
		cand := split.FindRandom(split.Request{
			Col: b.tbl.Cols[colIdx], ColIdx: colIdx,
			Y: b.tbl.Y(), Rows: rows,
			Measure: b.params.Measure, NumClasses: b.numClasses,
		}, b.rng)
		if cand.Valid {
			return cand
		}
	}
	return split.Candidate{}
}

// SeenCodes returns the sorted categorical codes present at the rows, or nil
// for numeric columns. Recorded on split nodes to detect unseen test values.
func SeenCodes(col *dataset.Column, rows []int32) []int32 {
	if col.Kind != dataset.Categorical {
		return nil
	}
	seen := make([]bool, col.NumLevels())
	var codes []int32
	for _, r := range rows {
		if col.IsMissing(int(r)) {
			continue
		}
		c := col.Cats[r]
		if !seen[c] {
			seen[c] = true
			codes = append(codes, c)
		}
	}
	slices.Sort(codes)
	return codes
}
