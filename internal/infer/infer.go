// Package infer is the compiled serving engine: it flattens trained models
// into cache-friendly packed node tables and evaluates them over row blocks
// with a zero-allocation steady state.
//
// The interpreter in core/forest walks pointer-linked Node values — fine for
// training-time evaluation, but a serving hot path pays for the pointer
// chasing, the per-request schema scans and the per-call allocations. Compile
// applies the cache-conscious layout playbook of "Breadth-first, Depth-next
// Training of Random Forests" (1910.06853) to prediction instead:
//
//   - every tree becomes 32-byte node records (threshold, left-child
//     offset, feature slot, and the seen/left level sets of a categorical
//     split over at most 64 levels) laid out in breadth-first order in one
//     model-wide array, so siblings are adjacent and traversal is array
//     indexing, not chasing; per-node payloads sit in arrays beside it, and
//     the sets of wider categorical splits in one shared word pool;
//   - forest rows walk eight at a time in lockstep for a fixed number of
//     steps, with selects instead of branches, so the core overlaps eight
//     independent chains of loads;
//   - categorical dictionaries (level string → code) are built once at
//     compile time, so request parsing is a map lookup, not a linear scan of
//     the training levels;
//   - row blocks and result buffers are pooled per model, so the parse →
//     predict → encode path allocates nothing after warm-up.
//
// Because every node carries its training-time prediction (Appendix D), a
// compiled model can stop traversal at any depth: Predict's maxDepth is the
// latency/accuracy dial the paper's depth-truncated evaluation guarantees,
// with no retraining. Predictions are bit-identical to the interpreter
// (forest.Forest.Predict* / boost.Model.Predict*) — the equivalence property
// tests in this package hold the engine to that.
package infer

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"treeserver/internal/boost"
	"treeserver/internal/core"
	"treeserver/internal/dataset"
	"treeserver/internal/model"
)

// Categorical cell sentinels. Both stop forest traversal at the current node
// (Appendix D routes missing and unseen values the same way), but boost
// models route missing values by the learned default direction while an
// unseen level keeps its -1 code as a numeric value, exactly like the
// interpreter's feature view — so the two cases stay distinguishable.
const (
	// unseenCode marks a categorical value absent from the training levels.
	unseenCode int32 = -1
	// missingCode marks a missing categorical cell.
	missingCode int32 = -2
)

// node is one compiled split, packed so a traversal step reads a single
// 32-byte record. Trees are laid out breadth-first, so a node's two children
// are adjacent and a step picks left or left+1 with a select, not a branch.
// Leaves are absorbing — left is the node itself and thresh is +Inf, which
// no value exceeds — so a walk can run a fixed number of steps.
type node struct {
	thresh float64 // numeric split value; +Inf at leaves
	// Categorical splits over at most 64 levels carry their sets inline:
	// seen holds the codes observed at the node in training, goLeft the codes
	// routed left. seen is all ones at numeric splits and leaves, and zero at
	// a wide categorical split, whose sets live in wide[goLeft].
	seen   uint64
	goLeft uint64
	left   int32 // left child (the right child is left+1); self at leaves
	slot   int32 // feature slot: s for numeric feature s, ^s for categorical s
}

// wideSplit locates the membership sets of a categorical split over more
// than 64 levels: the seen set at words[off:off+nw] followed by the left set
// at words[off+nw:off+2nw].
type wideSplit struct {
	off int32
	nw  int32
}

// tree locates one compiled tree in the model's node array.
type tree struct {
	root int32 // index of the root record
	// levels is the depth of the deepest leaf below the root: a full-depth
	// walk takes exactly this many steps. rootDepth is the root's Depth, the
	// origin of the maxDepth dial.
	levels    int32
	rootDepth int32
}

// steps returns how many lockstep steps a walk truncated at maxDepth takes:
// every step descends one level, and a node at Depth >= maxDepth stops.
func (t *tree) steps(maxDepth int32) int32 {
	if maxDepth <= 0 {
		return t.levels
	}
	return max(0, min(t.levels, maxDepth-t.rootDepth))
}

// Model is an immutable compiled inference artifact. All methods are safe
// for concurrent use; mutability lives in the per-call RowBlock/Result pairs.
type Model struct {
	schema     model.Schema
	kind       string // "forest" or "boost"
	regression bool
	numClasses int
	classes    []string
	dmax       int // deepest node depth across member trees

	// Feature plumbing: schema column index → row-block slot.
	colSlot  []int32 // slot within nums (numeric) or cats (categorical); -1 for the target
	colCat   []bool
	numSlots int
	catSlots int
	dicts    []map[string]int32 // categorical columns: level → code
	byName   map[string]int     // feature name → schema column index
	quoted   [][]byte           // feature name as its JSON token, nil if it needs escapes

	// Every tree's node records, tree after tree, breadth-first within each,
	// with child indices into this array, and beside them the sets of wide
	// categorical splits and the per-node payloads: traversal can stop
	// anywhere (leaf, missing value, unseen level, depth truncation), so
	// every node carries its prediction.
	trees    []tree
	nodes    []node
	wide     []wideSplit
	words    []uint64
	pmf      []float64 // classification: node-major PMFs, numClasses stride
	mean     []float64 // regression mean / boost leaf weight
	missLeft []bool    // boost: learned default direction for missing values

	// Boost-only shape: base margin and trees-per-round group count.
	boostBase    float64
	boostGroups  int
	boostClasses int // boost.Model.NumClasses: 0 regression, 1 binary, >=3 softmax

	blockPool sync.Pool
	resPool   sync.Pool
}

// Kind returns "forest" or "boost".
func (m *Model) Kind() string { return m.kind }

// Regression reports whether the model predicts a numeric target.
func (m *Model) Regression() bool { return m.regression }

// NumClasses returns the class count (0 for regression).
func (m *Model) NumClasses() int {
	if m.regression {
		return 0
	}
	return m.numClasses
}

// Classes returns the class label names (nil for regression). Shared; do not
// mutate.
func (m *Model) Classes() []string { return m.classes }

// NumTrees returns the flattened tree count (boost: rounds × groups).
func (m *Model) NumTrees() int { return len(m.trees) }

// MaxTreeDepth returns the deepest node depth across member trees — the
// upper end of the MaxDepth truncation dial.
func (m *Model) MaxTreeDepth() int { return m.dmax }

// Schema returns the training schema the model parses requests against.
func (m *Model) Schema() model.Schema { return m.schema }

// DepthTruncation reports whether Predict honours maxDepth. Forests carry
// Appendix D payloads on every node; boost trees predict only at leaves, so
// truncating them has nothing to return.
func (m *Model) DepthTruncation() bool { return m.kind == "forest" }

// Compile flattens a loaded model file into a compiled engine.
func Compile(f *model.File) (*Model, error) {
	if f == nil {
		return nil, fmt.Errorf("infer: nil model file")
	}
	s := f.Schema
	if s.NumCols() == 0 {
		return nil, fmt.Errorf("infer: model %q has an empty schema", f.Name)
	}
	m := &Model{
		schema:     s,
		regression: s.Regression(),
		colSlot:    make([]int32, s.NumCols()),
		colCat:     make([]bool, s.NumCols()),
		dicts:      make([]map[string]int32, s.NumCols()),
		byName:     make(map[string]int, s.NumCols()),
		quoted:     make([][]byte, s.NumCols()),
	}
	if !m.regression {
		m.classes = s.TargetLevels()
		m.numClasses = len(m.classes)
	}
	for ci := range s.Names {
		m.colSlot[ci] = -1
		if ci == s.Target {
			continue
		}
		m.byName[s.Names[ci]] = ci
		m.quoted[ci] = quotedName(s.Names[ci])
		if s.Kinds[ci] == dataset.Categorical {
			m.colCat[ci] = true
			m.colSlot[ci] = int32(m.catSlots)
			m.catSlots++
			dict := make(map[string]int32, len(s.Levels[ci]))
			for code, level := range s.Levels[ci] {
				dict[level] = int32(code)
			}
			m.dicts[ci] = dict
		} else {
			m.colSlot[ci] = int32(m.numSlots)
			m.numSlots++
		}
	}
	switch {
	case f.Forest != nil:
		m.kind = "forest"
		if len(f.Forest.Trees) == 0 {
			return nil, fmt.Errorf("infer: model %q has no trees", f.Name)
		}
		if !m.regression && f.Forest.NumClasses != m.numClasses {
			return nil, fmt.Errorf("infer: model %q: forest has %d classes, schema %d",
				f.Name, f.Forest.NumClasses, m.numClasses)
		}
		for i, t := range f.Forest.Trees {
			if err := m.compileTree(t); err != nil {
				return nil, fmt.Errorf("infer: model %q tree %d: %w", f.Name, i, err)
			}
		}
	case f.Boost != nil:
		m.kind = "boost"
		b := f.Boost
		if len(b.Rounds) == 0 || len(b.Rounds[0]) == 0 {
			return nil, fmt.Errorf("infer: model %q has no boosting rounds", f.Name)
		}
		m.boostBase = b.Base
		m.boostGroups = len(b.Rounds[0])
		m.boostClasses = b.NumClasses
		for r, trees := range b.Rounds {
			if len(trees) != m.boostGroups {
				return nil, fmt.Errorf("infer: model %q round %d has %d trees, want %d",
					f.Name, r, len(trees), m.boostGroups)
			}
			for k, t := range trees {
				if err := m.compileGTree(t); err != nil {
					return nil, fmt.Errorf("infer: model %q round %d tree %d: %w", f.Name, r, k, err)
				}
			}
		}
	default:
		return nil, fmt.Errorf("infer: model %q holds neither forest nor boost payload", f.Name)
	}
	// A walk step reads numeric slot 0 at categorical splits and leaves and
	// categorical slot 0 at numeric splits, so every row has at least one
	// cell of each kind, padding included.
	numStride, catStride := max(m.numSlots, 1), max(m.catSlots, 1)
	m.blockPool.New = func() any {
		return &RowBlock{numStride: numStride, catStride: catStride}
	}
	m.resPool.New = func() any { return &Result{} }
	powersOfTen() // the decoder's table, built once per process, here rather than in a request
	return m, nil
}

// compileTree flattens one core.Tree breadth-first onto the model's arrays.
func (m *Model) compileTree(t *core.Tree) error {
	if t == nil || t.Root == nil {
		return fmt.Errorf("empty tree")
	}
	nc := m.numClasses
	dst := tree{root: int32(len(m.nodes)), rootDepth: int32(t.Root.Depth)}
	// Breadth-first queue; indices are assigned in dequeue order, so a
	// node's children always land after it, side by side, and the top
	// levels stay adjacent.
	queue := []*core.Node{t.Root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		idx := int32(len(m.nodes))
		m.nodes = append(m.nodes, node{thresh: math.Inf(1), seen: ^uint64(0), left: idx})
		m.mean = append(m.mean, n.Mean)
		if nc > 0 {
			pmf := make([]float64, nc)
			copy(pmf, n.PMF)
			m.pmf = append(m.pmf, pmf...)
		}
		dst.levels = max(dst.levels, int32(n.Depth)-dst.rootDepth)
		if n.IsLeaf() {
			continue
		}
		// The walk counts one step per level, so depths must increment.
		if n.Left == nil || n.Right == nil || n.Left.Depth != n.Depth+1 || n.Right.Depth != n.Depth+1 {
			return fmt.Errorf("node %d: children missing or not one level below it", n.ID)
		}
		col := n.Cond.Col
		if col < 0 || col >= len(m.colSlot) || m.colSlot[col] < 0 {
			return fmt.Errorf("node %d splits on column %d outside the feature schema", n.ID, col)
		}
		nd := &m.nodes[idx]
		if n.Cond.Kind == dataset.Numeric {
			if m.colCat[col] {
				return fmt.Errorf("node %d: numeric split on categorical column %d", n.ID, col)
			}
			nd.slot = m.colSlot[col]
			nd.thresh = n.Cond.Threshold
		} else {
			if !m.colCat[col] {
				return fmt.Errorf("node %d: categorical split on numeric column %d", n.ID, col)
			}
			nw := int32(max(1, (len(m.schema.Levels[col])+63)/64))
			sets := make([]uint64, 2*nw)
			seen, left := sets[:nw], sets[nw:]
			for _, code := range n.SeenCodes {
				if code < 0 || int(code) >= int(nw)*64 {
					return fmt.Errorf("node %d: seen code %d outside column %d's %d levels",
						n.ID, code, col, len(m.schema.Levels[col]))
				}
				seen[code>>6] |= 1 << uint(code&63)
			}
			for _, code := range n.Cond.LeftSet {
				if code < 0 || int(code) >= int(nw)*64 {
					return fmt.Errorf("node %d: left code %d outside column %d's %d levels",
						n.ID, code, col, len(m.schema.Levels[col]))
				}
				left[code>>6] |= 1 << uint(code&63)
			}
			nd.slot = ^m.colSlot[col]
			if nw == 1 && seen[0] != 0 {
				nd.seen, nd.goLeft = seen[0], left[0]
			} else {
				nd.seen, nd.goLeft = 0, uint64(len(m.wide))
				m.wide = append(m.wide, wideSplit{off: int32(len(m.words)), nw: nw})
				m.words = append(m.words, sets...)
			}
		}
		// Children are appended to the queue in (left, right) order, so the
		// left child's final index is the current queue tail position and
		// the right child's is the next.
		nd.left = int32(len(m.nodes) + len(queue))
		queue = append(queue, n.Left, n.Right)
		if n.Depth >= m.dmax {
			m.dmax = n.Depth + 1
		}
	}
	m.trees = append(m.trees, dst)
	return nil
}

// compileGTree flattens one boosted regression tree. Gradient trees always
// compare the feature as float64 (categorical codes numeric, like the
// interpreter's feature view) and route missing values by the learned
// default direction.
func (m *Model) compileGTree(t *boost.GTree) error {
	if t == nil || t.Root == nil {
		return fmt.Errorf("empty tree")
	}
	dst := tree{root: int32(len(m.nodes))}
	type item struct {
		n     *boost.GNode
		depth int32
	}
	queue := []item{{t.Root, 0}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		n := it.n
		idx := int32(len(m.nodes))
		m.nodes = append(m.nodes, node{thresh: math.Inf(1), seen: ^uint64(0), left: idx})
		m.mean = append(m.mean, n.Weight)
		m.missLeft = append(m.missLeft, n.MissingLeft)
		dst.levels = max(dst.levels, it.depth)
		if int(it.depth) >= m.dmax {
			m.dmax = int(it.depth)
		}
		if n.Leaf {
			continue
		}
		if n.Left == nil || n.Right == nil {
			return fmt.Errorf("internal node missing a child")
		}
		col := n.Feature
		if col < 0 || col >= len(m.colSlot) || m.colSlot[col] < 0 {
			return fmt.Errorf("node splits on column %d outside the feature schema", col)
		}
		nd := &m.nodes[idx]
		nd.thresh = n.Threshold
		nd.slot = m.colSlot[col]
		if m.colCat[col] {
			nd.slot = ^nd.slot
		}
		nd.left = int32(len(m.nodes) + len(queue))
		queue = append(queue, item{n.Left, it.depth + 1}, item{n.Right, it.depth + 1})
	}
	m.trees = append(m.trees, dst)
	return nil
}

// lanes is how many rows a forest walk advances in lockstep: eight
// independent chains of dependent loads for the core to overlap.
const lanes = 8

// walk routes rows r0..r0+k-1 (k <= lanes) of b down tree t for steps
// levels and leaves each row's stopping node in at — the Appendix D
// semantics of core.Tree.route. A row stops at a leaf (which absorbs it),
// at a missing value (numeric NaN, categorical missingCode), at a
// categorical code the node never saw in training, and at depth
// truncation, which is the step count.
//
// A step has no data-dependent branch outside wide categorical splits. It
// reads both the numeric and the categorical cell the record names (a
// numeric record names categorical slot 0 and vice versa, so both reads are
// in bounds), computes whether the row moves and whether it goes right under
// either kind, and keeps the record's kind by mask: (v <= thresh) | (v >
// thresh) is 0 only for NaN, and a code moves only if its seen bit is set.
func (m *Model) walk(t *tree, b *RowBlock, r0, k int, steps int32, at *[lanes]int32) {
	var numOff, catOff [lanes]int
	for i := 0; i < k; i++ {
		at[i] = t.root
		numOff[i] = (r0 + i) * b.numStride
		catOff[i] = (r0 + i) * b.catStride
	}
	nodes, nums, cats := m.nodes, b.nums, b.cats
	for s := int32(0); s < steps; s++ {
		for i := 0; i < k; i++ {
			cur := at[i]
			nd := &nodes[cur]
			if nd.seen == 0 {
				at[i] = m.wideStep(cur, nd, cats[catOff[i]+int(^nd.slot)])
				continue
			}
			kind := nd.slot >> 31 // 0 numeric (or leaf), -1 categorical
			v := nums[numOff[i]+int(nd.slot&^kind)]
			code := uint32(cats[catOff[i]+int(^nd.slot&kind)])
			gt := b2i(v > nd.thresh)
			move := b2i(v <= nd.thresh) | gt
			// Missing and unseen codes are negative, so code >= 64 for them.
			sh := code & 63
			cmove := int32(nd.seen>>sh) & 1 & b2i(code < 64)
			cgt := cmove &^ int32(nd.goLeft>>sh)
			move ^= (move ^ cmove) & kind
			gt ^= (gt ^ cgt) & kind
			at[i] = cur + move*(nd.left+gt-cur)
		}
	}
}

// wideStep is one walk step at wide categorical split nd (node cur) for a
// row whose cell holds code c.
func (m *Model) wideStep(cur int32, nd *node, c int32) int32 {
	ws := m.wide[nd.goLeft]
	w := c >> 6
	if c < 0 || w >= ws.nw {
		return cur // missing or unseen level
	}
	bit := uint64(1) << uint(c&63)
	if m.words[ws.off+w]&bit == 0 {
		return cur // level not observed at this node during training
	}
	if m.words[ws.off+ws.nw+w]&bit == 0 {
		return nd.left + 1
	}
	return nd.left
}

// b2i converts a comparison result to 0 or 1 without a branch.
func b2i(b bool) int32 {
	var i int32
	if b {
		i = 1
	}
	return i
}

// routeBoost walks one row down a compiled gradient tree from its root:
// missing values follow the learned default direction, every other value is
// compared as float64 (unseen categorical levels keep their -1 code as a
// value, exactly like boost's feature view).
func (m *Model) routeBoost(root int32, nums []float64, cats []int32, numOff, catOff int) int32 {
	n := root
	for {
		nd := &m.nodes[n]
		if nd.left == n {
			return n // leaf
		}
		var v float64
		miss := false
		if nd.slot >= 0 {
			v = nums[numOff+int(nd.slot)]
			miss = v != v
		} else {
			c := cats[catOff+int(^nd.slot)]
			if c == missingCode {
				miss = true
			} else {
				v = float64(c)
			}
		}
		if miss {
			if m.missLeft[n] {
				n = nd.left
			} else {
				n = nd.left + 1
			}
			continue
		}
		if v <= nd.thresh {
			n = nd.left
		} else {
			n = nd.left + 1
		}
	}
}

// Predict scores every row of the block into res, truncating forest
// traversal at maxDepth (0 = full depth; ignored for boost models, whose
// internal nodes carry no predictions). The result holds, per row: the class
// code and PMF (classification forests), the class code (boost
// classification) or the value (regression). Zero allocations in steady
// state once res has grown to the block size.
func (m *Model) Predict(b *RowBlock, res *Result, maxDepth int) {
	_ = m.PredictCtx(context.Background(), b, res, maxDepth)
}

// PredictCtx is Predict with cooperative cancellation: between each
// tree × row-block pass it checks ctx and stops early, returning the
// context's error, so a request whose deadline fired (or whose client
// disconnected) releases its serving slot within one tree's worth of work
// instead of scoring the whole forest. The result is unusable after a
// non-nil return. The check is one ctx.Err() call per tree, so the steady
// state stays allocation-free.
func (m *Model) PredictCtx(ctx context.Context, b *RowBlock, res *Result, maxDepth int) error {
	res.grow(b.n, m.numClasses, m.kind == "forest" && !m.regression)
	if m.kind == "forest" {
		return m.predictForest(ctx, b, res, int32(maxDepth))
	}
	if m.regression {
		return m.predictBoostValue(ctx, b, res)
	}
	return m.predictBoostClass(ctx, b, res)
}

// predictForest mirrors forest.Forest.PredictPMF (PredictValue for
// regression) followed by the strict argmax of model.File.Predict: trees
// accumulate in member order, the sums divide by the tree count, ties break
// to the lowest class index — so the compiled PMFs, classes and values are
// bit-identical to the interpreter.
func (m *Model) predictForest(ctx context.Context, b *RowBlock, res *Result, maxDepth int32) error {
	nc := m.numClasses // 0 for regression
	acc := res.values[:b.n]
	if !m.regression {
		acc = res.pmf[:b.n*nc]
	}
	clear(acc)
	var at [lanes]int32
	for ti := range m.trees {
		if err := ctx.Err(); err != nil {
			return err
		}
		t := &m.trees[ti]
		steps := t.steps(maxDepth)
		for r0 := 0; r0 < b.n; r0 += lanes {
			k := min(lanes, b.n-r0)
			m.walk(t, b, r0, k, steps, &at)
			for i, n := range at[:k] {
				r := r0 + i
				if m.regression {
					acc[r] += m.mean[n]
					continue
				}
				dst := acc[r*nc : r*nc+nc]
				for j, p := range m.pmf[int(n)*nc : int(n)*nc+nc] {
					dst[j] += p
				}
			}
		}
	}
	numTrees := float64(len(m.trees))
	for i := range acc {
		acc[i] /= numTrees
	}
	if !m.regression {
		for row := 0; row < b.n; row++ {
			res.classes[row] = argMax(acc[row*nc : row*nc+nc])
		}
	}
	return nil
}

func (m *Model) predictBoostValue(ctx context.Context, b *RowBlock, res *Result) error {
	vals := res.values[:b.n]
	for i := range vals {
		vals[i] = m.boostBase
	}
	// Rounds were flattened in order with group 0 first; regression models
	// only ever have one group.
	for ti := 0; ti < len(m.trees); ti += m.boostGroups {
		if err := ctx.Err(); err != nil {
			return err
		}
		root := m.trees[ti].root
		for row := 0; row < b.n; row++ {
			n := m.routeBoost(root, b.nums, b.cats, row*b.numStride, row*b.catStride)
			vals[row] += m.mean[n]
		}
	}
	return nil
}

func (m *Model) predictBoostClass(ctx context.Context, b *RowBlock, res *Result) error {
	if m.boostClasses == 1 { // binary logistic: sign of the margin
		vals := res.values[:b.n]
		clear(vals)
		for ti := 0; ti < len(m.trees); ti += m.boostGroups {
			if err := ctx.Err(); err != nil {
				return err
			}
			root := m.trees[ti].root
			for row := 0; row < b.n; row++ {
				n := m.routeBoost(root, b.nums, b.cats, row*b.numStride, row*b.catStride)
				vals[row] += m.mean[n]
			}
		}
		for row := 0; row < b.n; row++ {
			if vals[row] > 0 {
				res.classes[row] = 1
			} else {
				res.classes[row] = 0
			}
		}
		return nil
	}
	// Softmax: scores accumulate in (round, group) order, argmax ties break
	// to the lowest class — matching boost.Model.PredictClass.
	nc := m.boostClasses
	scores := res.pmf[:b.n*nc]
	clear(scores)
	for ti := range m.trees {
		if err := ctx.Err(); err != nil {
			return err
		}
		root := m.trees[ti].root
		k := ti % m.boostGroups
		for row := 0; row < b.n; row++ {
			n := m.routeBoost(root, b.nums, b.cats, row*b.numStride, row*b.catStride)
			scores[row*nc+k] += m.mean[n]
		}
	}
	for row := 0; row < b.n; row++ {
		res.classes[row] = argMax(scores[row*nc : row*nc+nc])
	}
	return nil
}

// argMax returns the index of the strictly largest value, lowest index on
// ties — the tie-break every interpreter path uses.
func argMax(v []float64) int32 {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return int32(best)
}

// --- row blocks ---

// RowBlock is a reusable batch of parsed rows in the model's coordinate
// system: numeric features as float64 (NaN = missing), categorical features
// as int32 codes (missingCode / unseenCode sentinels). Obtain blocks from
// Model.GetBlock and return them with PutBlock; a block is only valid with
// the model that produced it.
type RowBlock struct {
	n         int
	numStride int
	catStride int
	nums      []float64
	cats      []int32
	scratch   []byte // JSON string unescape buffer, reused across requests
	// next is DecodeRequest's key-order prediction: next[0] is the column
	// the last row began with, next[ci+1] the column that followed column
	// ci, and the final entry the one that followed an unknown key; -1 is
	// no prediction.
	next []int32
}

// keyOrder returns the block's key-order prediction for a schema of n
// columns, creating it on first use.
func (b *RowBlock) keyOrder(n int) []int32 {
	if len(b.next) != n+2 {
		b.next = make([]int32, n+2)
		for i := range b.next {
			b.next[i] = -1
		}
	}
	return b.next
}

// Len returns the number of rows currently in the block.
func (b *RowBlock) Len() int { return b.n }

// Reset empties the block, keeping capacity.
func (b *RowBlock) Reset() { b.n = 0 }

// GetBlock returns an empty pooled row block for this model.
func (m *Model) GetBlock() *RowBlock {
	b := m.blockPool.Get().(*RowBlock)
	b.Reset()
	return b
}

// PutBlock returns a block to the model's pool.
func (m *Model) PutBlock(b *RowBlock) {
	if b != nil {
		m.blockPool.Put(b)
	}
}

// GetResult returns a pooled result buffer for this model.
func (m *Model) GetResult() *Result {
	return m.resPool.Get().(*Result)
}

// PutResult returns a result buffer to the model's pool.
func (m *Model) PutResult(r *Result) {
	if r != nil {
		m.resPool.Put(r)
	}
}

// grow appends one row with every cell missing, padding included.
func (b *RowBlock) grow() (numOff, catOff int) {
	numOff = b.n * b.numStride
	catOff = b.n * b.catStride
	if need := numOff + b.numStride; need > len(b.nums) {
		b.nums = append(b.nums, make([]float64, need-len(b.nums))...)
	}
	if need := catOff + b.catStride; need > len(b.cats) {
		b.cats = append(b.cats, make([]int32, need-len(b.cats))...)
	}
	nan := math.NaN()
	for i := range b.nums[numOff : numOff+b.numStride] {
		b.nums[numOff+i] = nan
	}
	for i := range b.cats[catOff : catOff+b.catStride] {
		b.cats[catOff+i] = missingCode
	}
	b.n++
	return numOff, catOff
}

// AppendRow parses one feature map (name → raw string value) into the block
// using the model's compiled dictionaries. The missing-value conventions
// match model.Schema.ParseRows: absent keys, empty strings, "NA" and "?" are
// missing; categorical values outside the training levels become unseen
// codes. Unknown feature names are ignored, like the interpreter. The one
// divergence: a numeric cell spelled "NaN" is treated as missing here (the
// interpreter stores it as an unflagged NaN value that always routes right).
func (m *Model) AppendRow(b *RowBlock, values map[string]string) error {
	numOff, catOff := b.grow()
	s := &m.schema
	for ci, name := range s.Names {
		slot := m.colSlot[ci]
		if slot < 0 {
			continue // target column: not a prediction input
		}
		raw, ok := values[name]
		raw = strings.TrimSpace(raw)
		missing := !ok || raw == "" || raw == "NA" || raw == "?"
		if m.colCat[ci] {
			code := missingCode
			if !missing {
				var found bool
				if code, found = m.dicts[ci][raw]; !found {
					code = unseenCode
				}
			}
			b.cats[catOff+int(slot)] = code
			continue
		}
		if missing {
			b.nums[numOff+int(slot)] = math.NaN()
			continue
		}
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			b.n--
			return fmt.Errorf("infer: row %d column %q: %q is not numeric", b.n, name, raw)
		}
		b.nums[numOff+int(slot)] = v
	}
	return nil
}

// AppendTableRow copies row r of a schema-shaped table (the column order the
// model was trained on, e.g. one produced by model.Schema.ParseRows) into
// the block. Missing cells follow the table's bitmap.
func (m *Model) AppendTableRow(b *RowBlock, tbl *dataset.Table, r int) error {
	if len(tbl.Cols) != len(m.colSlot) {
		return fmt.Errorf("infer: table has %d columns, schema %d", len(tbl.Cols), len(m.colSlot))
	}
	numOff, catOff := b.grow()
	for ci, col := range tbl.Cols {
		slot := m.colSlot[ci]
		if slot < 0 {
			continue
		}
		if m.colCat[ci] {
			if col.Kind != dataset.Categorical {
				b.n--
				return fmt.Errorf("infer: column %d is %v, schema wants categorical", ci, col.Kind)
			}
			if col.IsMissing(r) {
				b.cats[catOff+int(slot)] = missingCode
			} else {
				b.cats[catOff+int(slot)] = col.Cats[r]
			}
			continue
		}
		if col.Kind != dataset.Numeric {
			b.n--
			return fmt.Errorf("infer: column %d is %v, schema wants numeric", ci, col.Kind)
		}
		if col.IsMissing(r) {
			b.nums[numOff+int(slot)] = math.NaN()
		} else {
			b.nums[numOff+int(slot)] = col.Floats[r]
		}
	}
	return nil
}

// --- results ---

// Result holds Predict's per-row outputs. Buffers are reused across calls;
// accessors index into them without copying.
type Result struct {
	n          int
	numClasses int
	classes    []int32
	pmf        []float64
	values     []float64
}

// grow sizes the buffers for n rows.
func (r *Result) grow(n, numClasses int, wantPMF bool) {
	r.n, r.numClasses = n, numClasses
	if len(r.classes) < n {
		r.classes = append(r.classes, make([]int32, n-len(r.classes))...)
	}
	if len(r.values) < n {
		r.values = append(r.values, make([]float64, n-len(r.values))...)
	}
	if need := n * numClasses; (wantPMF || numClasses > 0) && len(r.pmf) < need {
		r.pmf = append(r.pmf, make([]float64, need-len(r.pmf))...)
	}
}

// Len returns the number of scored rows.
func (r *Result) Len() int { return r.n }

// Class returns row i's predicted class code (classification only).
func (r *Result) Class(i int) int32 { return r.classes[i] }

// PMF returns row i's class distribution (classification forests only). The
// slice aliases the result buffer; read it before the next Predict.
func (r *Result) PMF(i int) []float64 {
	return r.pmf[i*r.numClasses : i*r.numClasses+r.numClasses]
}

// Value returns row i's regression prediction.
func (r *Result) Value(i int) float64 { return r.values[i] }
