package split

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"treeserver/internal/dataset"
	"treeserver/internal/impurity"
)

func benchColumns(n int, rng *rand.Rand) (*dataset.Column, *dataset.Column, *dataset.Column, *dataset.Column) {
	num := make([]float64, n)
	cat := make([]int32, n)
	ycls := make([]int32, n)
	yreg := make([]float64, n)
	for i := 0; i < n; i++ {
		num[i] = rng.NormFloat64()
		cat[i] = int32(rng.Intn(8))
		if num[i]+rng.NormFloat64()*0.3 > 0 {
			ycls[i] = 1
		}
		yreg[i] = num[i]*2 + rng.NormFloat64()
	}
	levels := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	return dataset.NewNumeric("x", num), dataset.NewCategorical("c", cat, levels),
		dataset.NewCategorical("y", ycls, []string{"n", "p"}), dataset.NewNumeric("yr", yreg)
}

// denseRequest builds a steady-state dense-node request: RowSet covering the
// whole table, shared Scratch, and a warm-up call so the one-time SortIndex
// build and scratch growth happen outside the timed region.
func denseRequest(col, y *dataset.Column, rows []int32, m impurity.Measure, k int) Request {
	req := Request{
		Col: col, ColIdx: 0, Y: y, Rows: rows, Measure: m, NumClasses: k,
		RowSet:  dataset.RowSetOf(rows, col.Len()),
		Scratch: new(Scratch),
	}
	FindBest(req) // warm up: builds the sort index, grows scratch buffers
	return req
}

// BenchmarkFindBestNumericClassification measures the presorted-index fast
// path on a dense node — the inner loop of every column-task in steady state.
func BenchmarkFindBestNumericClassification(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	num, _, ycls, _ := benchColumns(10000, rng)
	req := denseRequest(num, ycls, dataset.AllRows(10000), impurity.Gini, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cand := FindBest(req); !cand.Valid {
			b.Fatal("no split")
		}
	}
}

// BenchmarkFindBestNumericClassificationFallback measures the sort+sweep
// fallback (no RowSet), the path sparse nodes take.
func BenchmarkFindBestNumericClassificationFallback(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	num, _, ycls, _ := benchColumns(10000, rng)
	rows := dataset.AllRows(10000)
	req := Request{Col: num, ColIdx: 0, Y: ycls, Rows: rows, Measure: impurity.Gini, NumClasses: 2, Scratch: new(Scratch)}
	FindBest(req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cand := FindBest(req); !cand.Valid {
			b.Fatal("no split")
		}
	}
}

// BenchmarkFindBestNumericRegression measures the variance sweep on the
// presorted fast path.
func BenchmarkFindBestNumericRegression(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	num, _, _, yreg := benchColumns(10000, rng)
	req := denseRequest(num, yreg, dataset.AllRows(10000), impurity.Variance, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FindBest(req)
	}
}

// BenchmarkFindBestNumericRegressionFallback measures the sort+sweep
// variance fallback.
func BenchmarkFindBestNumericRegressionFallback(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	num, _, _, yreg := benchColumns(10000, rng)
	rows := dataset.AllRows(10000)
	req := Request{Col: num, ColIdx: 0, Y: yreg, Rows: rows, Measure: impurity.Variance, Scratch: new(Scratch)}
	FindBest(req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FindBest(req)
	}
}

// BenchmarkFindBestCategoricalClassification measures subset enumeration
// over 8 levels (2^7 bipartitions).
func BenchmarkFindBestCategoricalClassification(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	_, cat, ycls, _ := benchColumns(10000, rng)
	rows := dataset.AllRows(10000)
	req := Request{Col: cat, ColIdx: 0, Y: ycls, Rows: rows, Measure: impurity.Gini, NumClasses: 2, Scratch: new(Scratch)}
	FindBest(req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FindBest(req)
	}
}

// BenchmarkFindBestCategoricalRegression measures Breiman's ordering trick.
func BenchmarkFindBestCategoricalRegression(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	_, cat, _, yreg := benchColumns(10000, rng)
	rows := dataset.AllRows(10000)
	req := Request{Col: cat, ColIdx: 0, Y: yreg, Rows: rows, Measure: impurity.Variance, Scratch: new(Scratch)}
	FindBest(req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FindBest(req)
	}
}

// TestFastPathZeroAllocs is the allocation-regression gate: once the sort
// index is built and the scratch is grown, the presorted numeric kernel must
// not allocate at all.
func TestFastPathZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	num, _, ycls, yreg := benchColumns(4096, rng)
	cls := denseRequest(num, ycls, dataset.AllRows(4096), impurity.Gini, 2)
	if allocs := testing.AllocsPerRun(20, func() { FindBest(cls) }); allocs != 0 {
		t.Fatalf("numeric classification fast path: %v allocs/op, want 0", allocs)
	}
	reg := denseRequest(num, yreg, dataset.AllRows(4096), impurity.Variance, 0)
	if allocs := testing.AllocsPerRun(20, func() { FindBest(reg) }); allocs != 0 {
		t.Fatalf("numeric regression fast path: %v allocs/op, want 0", allocs)
	}
}

// TestScratchReuseZeroAllocs: with a warmed Scratch, the sparse numeric path
// must run allocation-free, both above and below the Sorter's radix cutoff;
// the categorical kernels may allocate only the winning Condition's owned
// LeftSet copy (it outlives the scratch), nothing per evaluated subset.
func TestScratchReuseZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	num, cat, ycls, yreg := benchColumns(4096, rng)
	rows := dataset.AllRows(4096)
	cases := []struct {
		name      string
		req       Request
		maxAllocs float64
	}{
		{"numeric-fallback", Request{Col: num, Y: ycls, Rows: rows, Measure: impurity.Gini, NumClasses: 2}, 0},
		{"numeric-sparse-radix-reg", Request{Col: num, Y: yreg, Rows: rows, Measure: impurity.Variance}, 0},
		{"numeric-sparse-small", Request{Col: num, Y: ycls, Rows: rows[:300], Measure: impurity.Gini, NumClasses: 2}, 0},
		{"categorical-subset", Request{Col: cat, Y: ycls, Rows: rows, Measure: impurity.Gini, NumClasses: 2}, 1},
		{"categorical-breiman-reg", Request{Col: cat, Y: yreg, Rows: rows, Measure: impurity.Variance}, 1},
	}
	for _, tc := range cases {
		req := tc.req
		req.Scratch = new(Scratch)
		FindBest(req) // warm up: grows the scratch buffers
		if allocs := testing.AllocsPerRun(20, func() { FindBest(req) }); allocs > tc.maxAllocs {
			t.Fatalf("%s with warm scratch: %v allocs/op, want <= %v", tc.name, allocs, tc.maxAllocs)
		}
	}
}

// BenchmarkHistogramSplit measures the approximate PLANET path end to end:
// binning plus boundary sweep.
func BenchmarkHistogramSplit(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	num, _, ycls, _ := benchColumns(10000, rng)
	rows := dataset.AllRows(10000)
	bins := ComputeBins(num, 0, 32, rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := NewHistogram(bins.NumBins, 2)
		for r := 0; r < 10000; r++ {
			h.AddClass(bins.BinOf(num, r), ycls.Cats[r])
		}
		BestFromHistogram(bins, h, impurity.Gini)
	}
}

// BenchmarkPartition measures the delegate worker's I_x split.
func BenchmarkPartition(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	num, _, ycls, _ := benchColumns(100000, rng)
	rows := dataset.AllRows(100000)
	cand := FindBest(Request{Col: num, ColIdx: 0, Y: ycls, Rows: rows, Measure: impurity.Gini, NumClasses: 2})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, r := cand.Cond.Partition(num, rows)
		if len(l)+len(r) != len(rows) {
			b.Fatal("partition lost rows")
		}
	}
}

// BenchmarkFindBestDensity times both numeric paths on nodes of a 100k-row
// table at densities 0.01–1.0, for a class and a numeric target: the
// run-flagged walk, whose cost follows the table, and the radix Order path,
// whose cost follows the node. Each node is a sorted bootstrap-style sample
// of density × 100k rows, as a bagged tree's nodes are. DensityThreshold
// sits at the crossover.
func BenchmarkFindBestDensity(b *testing.B) {
	const n = 100_000
	rng := rand.New(rand.NewSource(7))
	num, _, ycls, yreg := benchColumns(n, rng)
	num.SortIndex()
	targets := []struct {
		name    string
		y       *dataset.Column
		measure impurity.Measure
		classes int
	}{{"gini", ycls, impurity.Gini, 2}, {"variance", yreg, impurity.Variance, 0}}
	for _, d := range []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 1} {
		rows := make([]int32, int(d*n))
		for i := range rows {
			rows[i] = int32(rng.Intn(n))
		}
		slices.Sort(rows)
		rs := dataset.RowSetOf(rows, n)
		for _, tg := range targets {
			req := Request{Col: num, Y: tg.y, Rows: rows, Measure: tg.measure, NumClasses: tg.classes,
				RowSet: rs, Scratch: new(Scratch)}
			for _, path := range []struct {
				name string
				find func(Request, *Scratch) Candidate
			}{{"walk", bestNumericPresorted}, {"order", bestNumericSorted}} {
				b.Run(fmt.Sprintf("d=%g/%s/%s", d, tg.name, path.name), func(b *testing.B) {
					path.find(req, req.Scratch) // warm the scratch
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						path.find(req, req.Scratch)
					}
				})
			}
		}
	}
}
