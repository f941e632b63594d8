package dataset

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNumericColumnBasics(t *testing.T) {
	c := NewNumeric("age", []float64{24, 28, 44, 32})
	if c.Kind != Numeric {
		t.Fatalf("kind = %v, want numeric", c.Kind)
	}
	if c.Len() != 4 {
		t.Fatalf("len = %d, want 4", c.Len())
	}
	if got := c.Float(2); got != 44 {
		t.Fatalf("Float(2) = %g, want 44", got)
	}
	if c.MissingCount() != 0 {
		t.Fatalf("missing = %d, want 0", c.MissingCount())
	}
}

func TestNaNBecomesMissing(t *testing.T) {
	c := NewNumeric("x", []float64{1, math.NaN(), 3})
	if !c.IsMissing(1) {
		t.Fatal("NaN row not marked missing")
	}
	if c.IsMissing(0) || c.IsMissing(2) {
		t.Fatal("non-NaN rows marked missing")
	}
	if c.MissingCount() != 1 {
		t.Fatalf("missing = %d, want 1", c.MissingCount())
	}
}

func TestCategoricalColumnBasics(t *testing.T) {
	levels := []string{"Primary", "Secondary", "Bachelor", "Master", "PhD"}
	c := NewCategorical("edu", []int32{2, 3, 2, 1, 4}, levels)
	if c.Kind != Categorical {
		t.Fatalf("kind = %v", c.Kind)
	}
	if c.NumLevels() != 5 {
		t.Fatalf("levels = %d, want 5", c.NumLevels())
	}
	if got := c.Cat(3); got != 1 {
		t.Fatalf("Cat(3) = %d, want 1", got)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

func TestValidateRejectsBadCode(t *testing.T) {
	c := NewCategorical("bad", []int32{0, 7}, []string{"a", "b"})
	if err := c.Validate(); err == nil {
		t.Fatal("expected out-of-range code error")
	}
}

func TestValidateAllowsMissingCodeOutOfRange(t *testing.T) {
	c := NewCategorical("ok", []int32{0, 99}, []string{"a", "b"})
	c.SetMissing(1)
	if err := c.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

func TestMissingBitmapGrowsPastWord(t *testing.T) {
	c := NewNumeric("x", make([]float64, 200))
	for _, i := range []int{0, 63, 64, 130, 199} {
		c.SetMissing(i)
	}
	for _, i := range []int{0, 63, 64, 130, 199} {
		if !c.IsMissing(i) {
			t.Fatalf("row %d not missing", i)
		}
	}
	if c.IsMissing(1) || c.IsMissing(65) || c.IsMissing(198) {
		t.Fatal("spurious missing bit")
	}
	if c.MissingCount() != 5 {
		t.Fatalf("missing = %d, want 5", c.MissingCount())
	}
}

func TestGatherNumericCarriesMissing(t *testing.T) {
	c := NewNumeric("x", []float64{10, 11, 12, 13, 14})
	c.SetMissing(2)
	g := c.Gather([]int32{4, 2, 0})
	want := []float64{14, 12, 10}
	if !reflect.DeepEqual(g.Floats, want) {
		t.Fatalf("gathered %v, want %v", g.Floats, want)
	}
	if !g.IsMissing(1) || g.IsMissing(0) || g.IsMissing(2) {
		t.Fatal("missing flags not carried to gathered positions")
	}
}

func TestGatherCategorical(t *testing.T) {
	c := NewCategorical("c", []int32{0, 1, 2, 1}, []string{"a", "b", "c"})
	g := c.Gather([]int32{3, 3, 0})
	if !reflect.DeepEqual(g.Cats, []int32{1, 1, 0}) {
		t.Fatalf("gathered %v", g.Cats)
	}
	if g.NumLevels() != 3 {
		t.Fatal("levels not carried")
	}
}

func TestCloneIsDeep(t *testing.T) {
	c := NewNumeric("x", []float64{1, 2, 3})
	c.SetMissing(1)
	d := c.Clone()
	d.Floats[0] = 99
	d.SetMissing(2)
	if c.Floats[0] != 1 {
		t.Fatal("clone shares float backing array")
	}
	if c.IsMissing(2) {
		t.Fatal("clone shares missing bitmap")
	}
}

func TestGatherRoundTripProperty(t *testing.T) {
	// Gathering all rows in order must reproduce the column exactly.
	f := func(vals []float64, missSeed int64) bool {
		for i, v := range vals {
			if math.IsNaN(v) {
				vals[i] = 0
			}
		}
		c := NewNumeric("x", vals)
		rng := rand.New(rand.NewSource(missSeed))
		for i := range vals {
			if rng.Intn(4) == 0 {
				c.SetMissing(i)
			}
		}
		rows := AllRows(len(vals))
		g := c.Gather(rows)
		if !reflect.DeepEqual(g.Floats, c.Floats) && !(len(vals) == 0 && g.Len() == 0) {
			return false
		}
		for i := range vals {
			if g.IsMissing(i) != c.IsMissing(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestByteSizePositive(t *testing.T) {
	c := NewCategorical("c", []int32{0, 1}, []string{"a", "b"})
	if c.ByteSize() <= 0 {
		t.Fatal("byte size must be positive")
	}
}

// TestGatherMissingBitmapSizedOnce: gathering a 100k-row column with 1 %
// missing cells allocates the column, its values and its bitmap once each,
// and the bitmap is exactly the one SetMissing row by row builds. Growing
// the bitmap a word at a time made this quadratic.
func TestGatherMissingBitmapSizedOnce(t *testing.T) {
	const n = 100_000
	rng := rand.New(rand.NewSource(5))
	c := NewNumeric("x", make([]float64, n))
	for i := 0; i < n; i++ {
		if rng.Intn(100) == 0 {
			c.SetMissing(i)
		}
	}
	rows := make([]int32, n)
	for i, r := range rng.Perm(n) {
		rows[i] = int32(r)
	}
	g := c.Gather(rows)
	want := NewNumeric("x", make([]float64, n))
	for i, r := range rows {
		if c.IsMissing(int(r)) {
			want.SetMissing(i)
		}
	}
	if !reflect.DeepEqual(g.Miss, want.Miss) {
		t.Fatal("gathered bitmap differs from the row-by-row reference")
	}
	if allocs := testing.AllocsPerRun(5, func() { c.Gather(rows) }); allocs > 3 {
		t.Fatalf("Gather: %v allocs/op, want <= 3", allocs)
	}
	var present []int32
	for r := int32(0); len(present) < 200; r++ {
		if !c.IsMissing(int(r)) {
			present = append(present, r)
		}
	}
	if none := c.Gather(present); none.Miss != nil {
		t.Fatal("gather with no missing rows kept a bitmap")
	}
}

// TestSetMissingGrowsGeometrically: marking 1 % of 100k rows in increasing
// order reallocates the bitmap O(log n) times, not once per word.
func TestSetMissingGrowsGeometrically(t *testing.T) {
	allocs := testing.AllocsPerRun(5, func() {
		c := &Column{Kind: Numeric}
		for i := 0; i < 100_000; i += 100 {
			c.SetMissing(i)
		}
	})
	if allocs > 30 {
		t.Fatalf("SetMissing over 1000 rows: %v allocs, want <= 30", allocs)
	}
}
