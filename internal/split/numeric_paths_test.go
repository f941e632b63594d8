package split

import (
	"math"
	"math/rand"
	"testing"

	"treeserver/internal/dataset"
	"treeserver/internal/impurity"
)

// tieColumn draws n values from a few distinct values that always include
// both signed zeros, so value runs are long and a zero run often sits at the
// winning boundary; about one cell in eight is missing.
func tieColumn(rng *rand.Rand, n int) *dataset.Column {
	pool := []float64{0, math.Copysign(0, -1), -1, 1, 2.5, -3e-300, 7}
	pool = pool[:2+rng.Intn(len(pool)-1)]
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = pool[rng.Intn(len(pool))]
		if rng.Intn(8) == 0 {
			vals[i] = math.NaN()
		}
	}
	return dataset.NewNumeric("x", vals)
}

// bagRows draws each row 0–8 times and shuffles the multiset.
func bagRows(rng *rand.Rand, n int) []int32 {
	var rows []int32
	for r := 0; r < n; r++ {
		c := rng.Intn(3) // about a third of rows absent, as in a bag
		if c == 2 {
			c = 1 + rng.Intn(8)
		}
		for ; c > 0; c-- {
			rows = append(rows, int32(r))
		}
	}
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	return rows
}

// TestNumericPathsAgreeWithBrute: the run-flagged dense walk and the radix
// Order path return the same candidate bit for bit, and both match the
// brute-force finder on impurity, condition, child counts and missing
// routing. Inputs have ties straddling the winning boundary, −0 and +0 in
// one run, missing cells and bag multiplicities up to 8, for class and
// numeric targets.
func TestNumericPathsAgreeWithBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	walkS, orderS := new(Scratch), new(Scratch)
	straddled, zeroBoundary := 0, 0
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(60)
		col := tieColumn(rng, n)
		classification := trial%2 == 0
		numClasses := 2 + rng.Intn(3)
		y := randTarget(rng, n, classification, numClasses)
		measure := impurity.Variance
		if classification {
			measure = []impurity.Measure{impurity.Gini, impurity.Entropy}[rng.Intn(2)]
		}
		rows := bagRows(rng, n)
		req := Request{Col: col, ColIdx: 3, Y: y, Rows: rows, Measure: measure, NumClasses: numClasses,
			RowSet: dataset.RowSetOf(rows, n)}
		if len(rows) < 2 {
			continue
		}

		walk := bestNumericPresorted(req, walkS)
		order := bestNumericSorted(req, orderS)
		if walk.Valid != order.Valid || walk.Impurity != order.Impurity || walk.LeftN != order.LeftN ||
			walk.RightN != order.RightN || walk.Cond.MissingLeft != order.Cond.MissingLeft ||
			math.Float64bits(walk.Cond.Threshold) != math.Float64bits(order.Cond.Threshold) {
			t.Fatalf("trial %d: walk %+v, order %+v", trial, walk, order)
		}

		brute := FindBestBrute(req)
		if walk.Valid != brute.Valid {
			t.Fatalf("trial %d: validity walk=%v brute=%v", trial, walk.Valid, brute.Valid)
		}
		if !walk.Valid {
			continue
		}
		if math.Abs(walk.Impurity-brute.Impurity) > 1e-9 {
			t.Fatalf("trial %d: impurity walk=%g brute=%g", trial, walk.Impurity, brute.Impurity)
		}
		// The brute force scores each condition by re-partitioning, so its
		// rounding differs; where two conditions tie within that rounding,
		// either is a correct answer and only the winner's own score is held.
		present, missN := presentRows(req)
		nearTies := 0
		for _, cond := range enumerateConditions(req, present) {
			if c := scoreCondition(req, cond, present); c.Valid && math.Abs(c.Impurity-brute.Impurity) <= 1e-9 {
				nearTies++
			}
		}
		own := scoreCondition(req, walk.Cond, present)
		own.Cond.MissingLeft = own.LeftN >= own.RightN
		if own.Cond.MissingLeft {
			own.LeftN += missN
		} else {
			own.RightN += missN
		}
		if own.LeftN != walk.LeftN || own.RightN != walk.RightN || own.Cond.MissingLeft != walk.Cond.MissingLeft {
			t.Fatalf("trial %d: walk counts %d|%d left=%v, its condition routes %d|%d left=%v",
				trial, walk.LeftN, walk.RightN, walk.Cond.MissingLeft, own.LeftN, own.RightN, own.Cond.MissingLeft)
		}
		if nearTies == 1 && (walk.Cond.Threshold != brute.Cond.Threshold || walk.LeftN != brute.LeftN ||
			walk.RightN != brute.RightN || walk.Cond.MissingLeft != brute.Cond.MissingLeft) {
			t.Fatalf("trial %d: walk %v %d|%d, brute %v %d|%d",
				trial, walk.Cond, walk.LeftN, walk.RightN, brute.Cond, brute.LeftN, brute.RightN)
		}

		// Coverage: the winning boundary split a tie run of more than one row
		// on each side, and a signed-zero run sat next to it.
		sorted := orderS.present
		b := order.LeftN - 1
		if order.Cond.MissingLeft {
			b -= missN
		}
		if b >= 1 && b+2 < len(sorted) && col.Floats[sorted[b-1]] == col.Floats[sorted[b]] &&
			col.Floats[sorted[b+1]] == col.Floats[sorted[b+2]] {
			straddled++
		}
		if col.Floats[sorted[b]] == 0 || col.Floats[sorted[b+1]] == 0 {
			zeroBoundary++
		}
	}
	t.Logf("%d straddled boundaries, %d at a zero run", straddled, zeroBoundary)
	if straddled < 50 || zeroBoundary < 50 {
		t.Fatalf("generator too easy: %d straddled boundaries, %d at a zero run", straddled, zeroBoundary)
	}
}

// presentRows splits a request's rows into those with a value and the
// count of those without.
func presentRows(req Request) (present []int32, missN int) {
	for _, r := range req.Rows {
		if req.Col.IsMissing(int(r)) {
			missN++
		} else {
			present = append(present, r)
		}
	}
	return present, missN
}
