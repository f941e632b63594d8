package split

import (
	"math"
	"math/rand"
	"testing"

	"treeserver/internal/dataset"
	"treeserver/internal/impurity"
)

// randNumericTable draws a numeric column (optionally with missing rows and
// heavy value ties) plus a target column over n rows.
func randNumericCol(rng *rand.Rand, n int, withMissing bool) *dataset.Column {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(rng.Intn(9)) // few distinct values => many ties
	}
	col := dataset.NewNumeric("x", vals)
	if withMissing {
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.15 {
				col.SetMissing(i)
			}
		}
	}
	return col
}

func randTarget(rng *rand.Rand, n int, classification bool, numClasses int) *dataset.Column {
	if classification {
		ys := make([]int32, n)
		names := make([]string, numClasses)
		for i := range names {
			names[i] = string(rune('A' + i))
		}
		for i := range ys {
			ys[i] = int32(rng.Intn(numClasses))
		}
		return dataset.NewCategorical("y", ys, names)
	}
	ys := make([]float64, n)
	for i := range ys {
		ys[i] = rng.NormFloat64() * 3
	}
	return dataset.NewNumeric("y", ys)
}

// randRows draws a random row multiset: sometimes all rows, sometimes a
// subset, sometimes a bootstrap-style sample with replacement (duplicates).
func randRows(rng *rand.Rand, n int) []int32 {
	switch rng.Intn(3) {
	case 0:
		return dataset.AllRows(n)
	case 1:
		var rows []int32
		for r := 0; r < n; r++ {
			if rng.Float64() < 0.7 {
				rows = append(rows, int32(r))
			}
		}
		return rows
	default:
		rows := make([]int32, n)
		for i := range rows {
			rows[i] = int32(rng.Intn(n))
		}
		return rows
	}
}

// TestPresortedMatchesFallbackExactly: the presorted membership walk and the
// sort+sweep fallback are the same algorithm over the same total order, so
// on any input — ties, missing values, duplicated bootstrap rows — they must
// return identical candidates, bit-for-bit on the impurity.
func TestPresortedMatchesFallbackExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	scratch := GetScratch()
	defer PutScratch(scratch)
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(120)
		classification := rng.Intn(2) == 0
		numClasses := 2 + rng.Intn(3)
		col := randNumericCol(rng, n, rng.Intn(2) == 0)
		y := randTarget(rng, n, classification, numClasses)
		rows := randRows(rng, n)
		measure := impurity.Variance
		if classification {
			measure = impurity.Gini
			if rng.Intn(2) == 0 {
				measure = impurity.Entropy
			}
		}
		base := Request{Col: col, ColIdx: 2, Y: y, Rows: rows, Measure: measure, NumClasses: numClasses}

		fallback := FindBest(base)

		fast := base
		fast.RowSet = dataset.RowSetOf(rows, n) // randRows draws dense nodes only
		fast.Scratch = scratch
		if !fast.usePresorted() && len(rows) >= 2 {
			t.Fatalf("trial %d: fast path did not engage", trial)
		}
		got := FindBest(fast)

		if got.Valid != fallback.Valid {
			t.Fatalf("trial %d: validity fast=%v fallback=%v", trial, got.Valid, fallback.Valid)
		}
		if !got.Valid {
			continue
		}
		if got.Impurity != fallback.Impurity {
			t.Fatalf("trial %d: impurity fast=%v fallback=%v (not bit-for-bit)", trial, got.Impurity, fallback.Impurity)
		}
		if got.Cond.Threshold != fallback.Cond.Threshold {
			t.Fatalf("trial %d: threshold fast=%v fallback=%v", trial, got.Cond.Threshold, fallback.Cond.Threshold)
		}
		if got.LeftN != fallback.LeftN || got.RightN != fallback.RightN {
			t.Fatalf("trial %d: counts fast=%d/%d fallback=%d/%d",
				trial, got.LeftN, got.RightN, fallback.LeftN, fallback.RightN)
		}
		if got.Cond.MissingLeft != fallback.Cond.MissingLeft {
			t.Fatalf("trial %d: missing routing differs", trial)
		}
	}
}

// TestPresortedAndFallbackMatchBrute: both numeric paths must achieve the
// brute-force optimum impurity, and every path's child counts must cover the
// node. Complements TestExactMatchesBruteForce by also driving the RowSet
// fast path and the shared Scratch.
func TestPresortedAndFallbackMatchBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	scratch := GetScratch()
	defer PutScratch(scratch)
	for trial := 0; trial < 150; trial++ {
		n := 2 + rng.Intn(50)
		classification := rng.Intn(2) == 0
		numClasses := 2 + rng.Intn(3)
		col := randNumericCol(rng, n, rng.Intn(2) == 0)
		y := randTarget(rng, n, classification, numClasses)
		rows := randRows(rng, n)
		measure := impurity.Variance
		if classification {
			measure = impurity.Gini
		}
		base := Request{Col: col, ColIdx: 0, Y: y, Rows: rows, Measure: measure, NumClasses: numClasses}

		brute := FindBestBrute(base)
		fallback := FindBest(base)
		fast := base
		fast.RowSet = dataset.RowSetOf(rows, n)
		fast.Scratch = scratch
		pres := FindBest(fast)

		for name, cand := range map[string]Candidate{"fallback": fallback, "presorted": pres} {
			if cand.Valid != brute.Valid {
				t.Fatalf("trial %d: %s validity %v, brute %v", trial, name, cand.Valid, brute.Valid)
			}
			if !cand.Valid {
				continue
			}
			if math.Abs(cand.Impurity-brute.Impurity) > 1e-9 {
				t.Fatalf("trial %d: %s impurity %g, brute %g", trial, name, cand.Impurity, brute.Impurity)
			}
			if cand.LeftN+cand.RightN != len(rows) {
				t.Fatalf("trial %d: %s counts %d+%d do not cover %d rows",
					trial, name, cand.LeftN, cand.RightN, len(rows))
			}
		}
	}
}

// TestScratchReuseMatchesFreshAcrossKinds: one Scratch reused across a long
// randomized stream of requests — numeric and categorical, classification
// and regression, with and without missing values — must return the same
// candidate as a fresh computation each time. Catches stale-buffer bugs.
func TestScratchReuseMatchesFreshAcrossKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	scratch := GetScratch()
	defer PutScratch(scratch)
	for trial := 0; trial < 250; trial++ {
		n := 2 + rng.Intn(80)
		classification := rng.Intn(2) == 0
		numClasses := 2 + rng.Intn(4)
		var col *dataset.Column
		if rng.Intn(2) == 0 {
			col = randNumericCol(rng, n, rng.Intn(2) == 0)
		} else {
			levels := 2 + rng.Intn(12) // crosses the exhaustive/Breiman/singleton regimes
			names := make([]string, levels)
			for i := range names {
				names[i] = string(rune('a' + i))
			}
			codes := make([]int32, n)
			for i := range codes {
				codes[i] = int32(rng.Intn(levels))
			}
			col = dataset.NewCategorical("c", codes, names)
		}
		y := randTarget(rng, n, classification, numClasses)
		rows := randRows(rng, n)
		measure := impurity.Variance
		if classification {
			measure = impurity.Gini
		}
		req := Request{Col: col, ColIdx: 1, Y: y, Rows: rows, Measure: measure, NumClasses: numClasses}

		fresh := FindBest(req)
		req.Scratch = scratch
		reused := FindBest(req)

		if fresh.Valid != reused.Valid {
			t.Fatalf("trial %d: validity fresh=%v reused=%v", trial, fresh.Valid, reused.Valid)
		}
		if !fresh.Valid {
			continue
		}
		if fresh.Impurity != reused.Impurity || fresh.LeftN != reused.LeftN || fresh.RightN != reused.RightN {
			t.Fatalf("trial %d: scratch reuse diverged: fresh=%+v reused=%+v", trial, fresh, reused)
		}
		if fresh.Cond.Kind == dataset.Categorical {
			if len(fresh.Cond.LeftSet) != len(reused.Cond.LeftSet) {
				t.Fatalf("trial %d: left sets differ: %v vs %v", trial, fresh.Cond.LeftSet, reused.Cond.LeftSet)
			}
			for i := range fresh.Cond.LeftSet {
				if fresh.Cond.LeftSet[i] != reused.Cond.LeftSet[i] {
					t.Fatalf("trial %d: left sets differ: %v vs %v", trial, fresh.Cond.LeftSet, reused.Cond.LeftSet)
				}
			}
		} else if fresh.Cond.Threshold != reused.Cond.Threshold {
			t.Fatalf("trial %d: thresholds differ: %v vs %v", trial, fresh.Cond.Threshold, reused.Cond.Threshold)
		}
	}
}

// TestDensityGate: below the density threshold the presorted path must not
// engage even with a RowSet present; at or above it must.
func TestDensityGate(t *testing.T) {
	n := 1000
	col := randNumericCol(rand.New(rand.NewSource(1)), n, false)
	rs := dataset.RowSetOf(dataset.AllRows(n), n)

	sparseRows := dataset.AllRows(n)[:10]
	sparse := Request{Col: col, Rows: sparseRows, RowSet: rs}
	if sparse.usePresorted() {
		t.Fatal("sparse node engaged the presorted path at default density")
	}
	dense := Request{Col: col, Rows: dataset.AllRows(n), RowSet: rs}
	if !dense.usePresorted() {
		t.Fatal("dense node did not engage the presorted path")
	}
	mismatched := Request{Col: col, Rows: dataset.AllRows(n), RowSet: dataset.NewRowSet(n + 1)}
	if mismatched.usePresorted() {
		t.Fatal("mismatched RowSet capacity engaged the presorted path")
	}
}
