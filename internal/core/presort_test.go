package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"treeserver/internal/dataset"
	"treeserver/internal/split"
	"treeserver/internal/synth"
)

// referenceTree is the per-node sort+sweep trainer the presorted kernel
// replaced: every node calls split.FindBest without a RowSet (so numeric
// columns sort the node's rows) and partitions with Condition.Partition. It
// shares only node construction with TrainLocal.
func referenceTree(tbl *dataset.Table, rows []int32, params Params) *Tree {
	b := newBuilder(tbl, params)
	var build func(rows []int32, depth int) *Node
	build = func(rows []int32, depth int) *Node {
		n := b.newNode(rows, depth)
		if ShouldStop(tbl, rows, depth, b.params) {
			return n
		}
		best := split.Candidate{}
		for _, colIdx := range b.params.Candidates {
			cand := split.FindBest(split.Request{
				Col: tbl.Cols[colIdx], ColIdx: colIdx, Y: tbl.Y(), Rows: rows,
				Measure: b.params.Measure, NumClasses: b.numClasses,
				MaxExhaustiveLevels: b.params.MaxExhaustiveLevels,
			})
			if cand.Better(best) {
				best = cand
			}
		}
		if !best.Valid {
			return n
		}
		col := tbl.Cols[best.Cond.Col]
		left, right := best.Cond.Partition(col, rows)
		if len(left) == 0 || len(right) == 0 {
			return n
		}
		n.Cond = &best.Cond
		n.SeenCodes = SeenCodes(col, rows)
		n.Left = build(left, depth+1)
		n.Right = build(right, depth+1)
		return n
	}
	return b.finish(build(rows, 0))
}

// tieTable is a synthetic table whose numeric values are coarsened into few
// distinct values (so most boundaries are ties), with a share of exact zeros
// of both signs and the generator's missing cells.
func tieTable(rows, classes int, seed int64) *dataset.Table {
	tbl := synth.GenerateTrain(synth.Spec{
		Name: "ties", Rows: rows, NumNumeric: 5, NumCategorical: 2, CatLevels: 4,
		NumClasses: classes, MissingRate: 0.05, ConceptDepth: 5, LabelNoise: 0.1, Seed: seed,
	})
	rng := rand.New(rand.NewSource(seed))
	negZero := math.Copysign(0, -1)
	for _, c := range tbl.FeatureIndexes() {
		col := tbl.Cols[c]
		if col.Kind != dataset.Numeric {
			continue
		}
		for r, v := range col.Floats {
			switch rng.Intn(8) {
			case 0:
				col.Floats[r] = 0
			case 1:
				col.Floats[r] = negZero
			default:
				col.Floats[r] = math.Round(v*4) / 4
			}
		}
	}
	return tbl
}

// bootstrap draws n rows with replacement, in draw order (unsorted).
func bootstrap(n int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(rng.Intn(n))
	}
	return rows
}

// TestTrainLocalMatchesPerNodeSort is the kernel's contract: the sort-once
// builder grows the tree a per-node sort+sweep builder grows, bit for bit, on
// gathered tables and on bagged full tables, with and without a cached
// SortIndex, for classification and regression, over ties, signed zeros,
// missing values, bag duplicates and unsorted input rows.
func TestTrainLocalMatchesPerNodeSort(t *testing.T) {
	for _, classes := range []int{3, 0} {
		for _, size := range []int{300, 3000} {
			full := tieTable(size, classes, int64(size+classes))
			bag := bootstrap(size, int64(size))
			fifth := bag[:size/5]
			gathered := full.Gather(bag)
			cases := []struct {
				name string
				tbl  *dataset.Table
				rows []int32
				warm bool
			}{
				{"gathered", gathered, dataset.AllRows(gathered.NumRows()), false},
				{"bag", full, bag, false},
				{"bag-cached", full, bag, true},
				{"fifth-cached", full, fifth, true},
			}
			for _, tc := range cases {
				t.Run(fmt.Sprintf("classes=%d/n=%d/%s", classes, size, tc.name), func(t *testing.T) {
					if tc.warm {
						for _, c := range tc.tbl.Cols {
							c.SortIndex()
						}
					}
					for _, depth := range []int{4, 0} {
						params := Defaults()
						params.MaxDepth = depth
						got := TrainLocal(tc.tbl, tc.rows, params)
						want := referenceTree(tc.tbl, tc.rows, params)
						if d := DiffTrees(want, got); d != "" {
							t.Fatalf("max depth %d: presorted tree diverges from per-node sort:\n%s", depth, d)
						}
						if got.NumNodes != want.NumNodes || got.MaxDepth != want.MaxDepth {
							t.Fatalf("max depth %d: %d nodes depth %d, want %d nodes depth %d",
								depth, got.NumNodes, got.MaxDepth, want.NumNodes, want.MaxDepth)
						}
					}
				})
			}
		}
	}
}

// TestTrainLocalLeavesRowsUntouched: the builder partitions its own copy.
func TestTrainLocalLeavesRowsUntouched(t *testing.T) {
	tbl := tieTable(500, 2, 9)
	rows := bootstrap(500, 9)
	before := append([]int32(nil), rows...)
	TrainLocal(tbl, rows, Defaults())
	for i := range rows {
		if rows[i] != before[i] {
			t.Fatalf("caller's rows modified at %d", i)
		}
	}
}

// TestTrainLocalAllocsFlatInNumericColumns guards the pooled presort
// buffers: a steady-state build on a 10k-row gathered table allocates about
// the same bytes whether it presorts 4 numeric columns or 16. The wide table
// repeats the narrow one's columns, and ties go to the lower column, so both
// grow the same tree and the same nodes.
func TestTrainLocalAllocsFlatInNumericColumns(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	base := benchTable(20000)
	sub := bootstrap(20000, 3)[:10000]
	narrow := base.Gather(sub)
	narrowCols := append([]*dataset.Column(nil), narrow.Cols[:4]...)
	narrowCols = append(narrowCols, narrow.Cols[10:]...) // 4 categoricals + Y
	narrow = dataset.MustNewTable(narrowCols, len(narrowCols)-1)
	wideCols := append([]*dataset.Column(nil), narrowCols[:len(narrowCols)-1]...)
	for i := 0; i < 3; i++ {
		for _, c := range narrowCols[:4] {
			wideCols = append(wideCols, c.Clone())
		}
	}
	wideCols = append(wideCols, narrow.Y())
	wide := dataset.MustNewTable(wideCols, len(wideCols)-1)
	rows := dataset.AllRows(narrow.NumRows())
	params := Defaults()

	if d := DiffTrees(TrainLocal(narrow, rows, params), TrainLocal(wide, rows, params)); d != "" {
		t.Fatalf("wide table grew a different tree:\n%s", d)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	bytes := func(tbl *dataset.Table) uint64 {
		TrainLocal(tbl, rows, params) // warm the pools at this width
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		TrainLocal(tbl, rows, params)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	n, w := bytes(narrow), bytes(wide)
	t.Logf("bytes per build: 4 numeric columns %d, 16 numeric columns %d", n, w)
	if w > n+n/10 {
		t.Fatalf("16 numeric columns allocate %d B per build, 4 allocate %d: presort buffers are not pooled", w, n)
	}
}
