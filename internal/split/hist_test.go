package split

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"treeserver/internal/dataset"
	"treeserver/internal/impurity"
	"treeserver/internal/sketch"
)

// histSketchFor builds the bin proposal a hist-mode worker would ship: one
// weighted sketch over the column's non-missing values in row order.
func histSketchFor(col *dataset.Column, maxBins int) *sketch.Sketch {
	size := 4 * maxBins
	if size < 64 {
		size = 64
	}
	sk := sketch.New(size)
	for r := 0; r < col.Len(); r++ {
		if !col.IsMissing(r) {
			sk.Add(col.Floats[r], 1)
		}
	}
	return sk
}

func fillHistFor(bc *BinnedColumn, y *dataset.Column, rows []int32, numClasses int) *Hist {
	classes := 0
	if y.Kind == dataset.Categorical {
		classes = numClasses
	}
	h := GetHist(bc.Bins.NumBins, classes)
	h.Fill(bc, y, rows)
	return h
}

func sameCondition(a, b Condition) bool {
	return a.Col == b.Col && a.Kind == b.Kind && a.Threshold == b.Threshold &&
		a.MissingLeft == b.MissingLeft && slices.Equal(a.LeftSet, b.LeftSet)
}

// TestHistSaturatedMatchesExact is the maxBins-saturated equivalence
// property: when every distinct value of a numeric column fits in its own
// bin, the histogram splitter proposes the exact sweep's thresholds and must
// return the same (column, threshold, gain) as FindBest. Classification
// gains are bitwise identical (integer bin counts feed the same impurity
// arithmetic); regression gains agree to rounding because per-bin moments
// are summed in a different order.
func TestHistSaturatedMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	scratch := GetScratch()
	defer PutScratch(scratch)
	const maxBins = 16 // > 9 distinct values drawn by randNumericCol
	for trial := 0; trial < 300; trial++ {
		n := 30 + rng.Intn(200)
		classification := trial%2 == 0
		numClasses := 2 + rng.Intn(3)
		col := randNumericCol(rng, n, trial%3 == 0)
		y := randTarget(rng, n, classification, numClasses)

		bins := BinsFromSketch(0, histSketchFor(col, maxBins), maxBins)
		bc := BinColumn(col, bins)
		rows := randRows(rng, n)

		h := fillHistFor(bc, y, rows, numClasses)
		got := BestFromHist(bins, h, impurity.Gini, 0, scratch)
		PutHist(h)
		want := FindBest(Request{
			Col: col, ColIdx: 0, Y: y, Rows: rows,
			Measure: impurity.Gini, NumClasses: numClasses,
		})

		if got.Valid != want.Valid {
			t.Fatalf("trial %d: valid %v != %v", trial, got.Valid, want.Valid)
		}
		if !got.Valid {
			continue
		}
		if got.LeftN != want.LeftN || got.RightN != want.RightN {
			t.Fatalf("trial %d: counts (%d,%d) != (%d,%d)",
				trial, got.LeftN, got.RightN, want.LeftN, want.RightN)
		}
		if classification {
			if got.Impurity != want.Impurity {
				t.Fatalf("trial %d: impurity %v != %v", trial, got.Impurity, want.Impurity)
			}
		} else if math.Abs(got.Impurity-want.Impurity) > 1e-9*(1+math.Abs(want.Impurity)) {
			t.Fatalf("trial %d: impurity %v != %v", trial, got.Impurity, want.Impurity)
		}
		// Over the full table the proposed thresholds are the exact sweep's
		// midpoints, so the condition matches verbatim; over subsets the
		// threshold may sit at a different point of the same gap, but both
		// conditions must induce the same partition.
		allRows := len(rows) == n
		for i := 0; allRows && i < n; i++ {
			allRows = int(rows[i]) == i
		}
		if allRows && got.Cond.Threshold != want.Cond.Threshold {
			t.Fatalf("trial %d: threshold %v != %v", trial, got.Cond.Threshold, want.Cond.Threshold)
		}
		for _, r := range rows {
			if got.Cond.GoesLeft(col, int(r)) != want.Cond.GoesLeft(col, int(r)) {
				t.Fatalf("trial %d: partitions disagree at row %d (%v vs %v)",
					trial, r, got.Cond, want.Cond)
			}
		}
	}
}

// TestHistCategoricalMatchesExactBitwise: categorical histograms reconstruct
// the exact per-level statistics (counts, row-order moments) and reuse the
// exact kernels, so the candidates must be fully identical on any row
// multiset — both tasks, including LeftSet and gain bits.
func TestHistCategoricalMatchesExactBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	scratch := GetScratch()
	defer PutScratch(scratch)
	for trial := 0; trial < 300; trial++ {
		n := 30 + rng.Intn(200)
		classification := trial%2 == 0
		numClasses := 2 + rng.Intn(3)
		levels := 2 + rng.Intn(6)
		names := make([]string, levels)
		for i := range names {
			names[i] = string(rune('a' + i))
		}
		codes := make([]int32, n)
		for i := range codes {
			codes[i] = int32(rng.Intn(levels))
		}
		col := dataset.NewCategorical("c", codes, names)
		if trial%3 == 0 {
			for i := 0; i < n; i++ {
				if rng.Float64() < 0.15 {
					col.SetMissing(i)
				}
			}
		}
		y := randTarget(rng, n, classification, numClasses)

		bins := Bins{Col: 0, Kind: dataset.Categorical, NumBins: levels}
		bc := BinColumn(col, bins)
		rows := randRows(rng, n)

		h := fillHistFor(bc, y, rows, numClasses)
		got := BestFromHist(bins, h, impurity.Entropy, 0, scratch)
		PutHist(h)
		want := FindBest(Request{
			Col: col, ColIdx: 0, Y: y, Rows: rows,
			Measure: impurity.Entropy, NumClasses: numClasses,
		})

		if got.Valid != want.Valid {
			t.Fatalf("trial %d: valid %v != %v", trial, got.Valid, want.Valid)
		}
		if !got.Valid {
			continue
		}
		if got.Impurity != want.Impurity || got.LeftN != want.LeftN ||
			got.RightN != want.RightN || !sameCondition(got.Cond, want.Cond) {
			t.Fatalf("trial %d: candidate %+v != %+v", trial, got, want)
		}
	}
}

// TestHistSubtractionBitwise: deriving the larger sibling by subtracting the
// smaller from the cached parent must be bitwise identical to filling it
// directly — the invariant that makes opportunistic subtraction safe for
// deterministic training.
func TestHistSubtractionBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	scratch := GetScratch()
	defer PutScratch(scratch)
	for trial := 0; trial < 100; trial++ {
		n := 50 + rng.Intn(200)
		numClasses := 2 + rng.Intn(3)
		col := randNumericCol(rng, n, trial%2 == 0)
		y := randTarget(rng, n, true, numClasses)
		bins := BinsFromSketch(0, histSketchFor(col, 16), 16)
		bc := BinColumn(col, bins)

		rows := dataset.AllRows(n)
		pivot := float64(rng.Intn(9))
		var left, right []int32
		for _, r := range rows {
			if !col.IsMissing(int(r)) && col.Floats[r] <= pivot {
				left = append(left, r)
			} else {
				right = append(right, r)
			}
		}
		parent := fillHistFor(bc, y, rows, numClasses)
		small := fillHistFor(bc, y, left, numClasses)
		direct := fillHistFor(bc, y, right, numClasses)
		derived := GetHist(bins.NumBins, numClasses)
		derived.Sub(parent, small)

		if derived.Missing != direct.Missing || !slices.Equal(derived.W, direct.W) {
			t.Fatalf("trial %d: subtracted histogram differs from direct fill", trial)
		}
		gd := BestFromHist(bins, derived, impurity.Gini, 0, scratch)
		gt := BestFromHist(bins, direct, impurity.Gini, 0, scratch)
		if gd.Valid != gt.Valid || gd.Impurity != gt.Impurity || !sameCondition(gd.Cond, gt.Cond) {
			t.Fatalf("trial %d: candidates differ after subtraction", trial)
		}
		PutHist(parent)
		PutHist(small)
		PutHist(direct)
		PutHist(derived)
	}
}

// TestHistMergeEqualsSingle: merging shard histograms equals one histogram
// over the concatenated rows (classification counts are exact integers).
func TestHistMergeEqualsSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	n := 400
	col := randNumericCol(rng, n, true)
	y := randTarget(rng, n, true, 3)
	bins := BinsFromSketch(0, histSketchFor(col, 16), 16)
	bc := BinColumn(col, bins)

	all := fillHistFor(bc, y, dataset.AllRows(n), 3)
	merged := GetHist(bins.NumBins, 3)
	for shard := 0; shard < 4; shard++ {
		var rows []int32
		for r := shard; r < n; r += 4 {
			rows = append(rows, int32(r))
		}
		part := fillHistFor(bc, y, rows, 3)
		merged.Merge(part)
		PutHist(part)
	}
	if merged.Missing != all.Missing || !slices.Equal(merged.W, all.W) {
		t.Fatal("merged shard histograms differ from single fill")
	}
	PutHist(all)
	PutHist(merged)
}

// TestHistKernelZeroAlloc: the pooled fill+sweep hot path must not allocate
// once scratch, pool, and binned column are warm — numeric conditions carry
// no slices, so the whole per-(node, column) kernel is allocation-free.
func TestHistKernelZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	rng := rand.New(rand.NewSource(65))
	n := 2000
	colC := randNumericCol(rng, n, true)
	yC := randTarget(rng, n, true, 3)
	colR := randNumericCol(rng, n, false)
	yR := randTarget(rng, n, false, 0)
	binsC := BinsFromSketch(0, histSketchFor(colC, 32), 32)
	binsR := BinsFromSketch(1, histSketchFor(colR, 32), 32)
	bcC := BinColumn(colC, binsC)
	bcR := BinColumn(colR, binsR)
	rows := dataset.AllRows(n)
	scratch := GetScratch()
	defer PutScratch(scratch)

	// Warm the pool and scratch buffers.
	h := GetHist(binsC.NumBins, 3)
	h.Fill(bcC, yC, rows)
	BestFromHist(binsC, h, impurity.Gini, 0, scratch)
	h.Reset(binsR.NumBins, 0)
	h.Fill(bcR, yR, rows)
	BestFromHist(binsR, h, impurity.Variance, 0, scratch)
	PutHist(h)

	allocs := testing.AllocsPerRun(50, func() {
		hc := GetHist(binsC.NumBins, 3)
		hc.Fill(bcC, yC, rows)
		BestFromHist(binsC, hc, impurity.Gini, 0, scratch)
		PutHist(hc)
		hr := GetHist(binsR.NumBins, 0)
		hr.Fill(bcR, yR, rows)
		BestFromHist(binsR, hr, impurity.Variance, 0, scratch)
		PutHist(hr)
	})
	if allocs != 0 {
		t.Fatalf("hist kernel allocated %v times per run, want 0", allocs)
	}
}

// TestBinsFromSketchSaturated: with at most maxBins distinct values, every
// value gets its own bin and each threshold is the exact sweep's midpoint of
// adjacent distinct values; merging an identical replica sketch (doubling
// every weight) must propose identical bins.
func TestBinsFromSketchSaturated(t *testing.T) {
	values := []float64{-3, -1.5, 0, 0.25, 2, 7}
	sk := sketch.New(64)
	rng := rand.New(rand.NewSource(66))
	for i := 0; i < 500; i++ {
		sk.Add(values[rng.Intn(len(values))], 1)
	}
	bins := BinsFromSketch(4, sk, 16)
	if bins.NumBins != len(values) {
		t.Fatalf("NumBins = %d, want %d", bins.NumBins, len(values))
	}
	for i := 0; i+1 < len(values); i++ {
		want := midpoint(values[i], values[i+1])
		if bins.Thresholds[i] != want {
			t.Fatalf("threshold[%d] = %v, want %v", i, bins.Thresholds[i], want)
		}
	}
	replica := sketch.FromEntries(64, sk.Entries())
	merged := sketch.FromEntries(64, sk.Entries())
	merged.Merge(replica)
	if got := BinsFromSketch(4, merged, 16); !slices.Equal(got.Thresholds, bins.Thresholds) {
		t.Fatalf("replica-merged bins differ: %v vs %v", got.Thresholds, bins.Thresholds)
	}
}
