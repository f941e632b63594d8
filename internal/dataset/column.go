// Package dataset defines the tabular data model used throughout TreeServer:
// typed columns with missing-value bitmaps, tables binding columns to a
// prediction target, and CSV ingestion with schema inference.
//
// TreeServer partitions data by column, so Column is the unit of storage,
// shipping and splitting: a worker that holds a column can compute that
// column's best split condition without talking to any other machine.
package dataset

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
)

// Kind discriminates the two attribute types the paper supports: ordinal
// (numeric) attributes split by "Ai <= v", and categorical attributes split
// by "Ai in Sl".
type Kind uint8

const (
	// Numeric marks an ordinal attribute stored as float64 values.
	Numeric Kind = iota
	// Categorical marks a discrete attribute stored as int32 level codes.
	Categorical
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Numeric:
		return "numeric"
	case Categorical:
		return "categorical"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Column is a single attribute of a data table. Exactly one of Floats or
// Cats is populated, according to Kind. Missing values are tracked in a
// bitmap so that the backing slices stay dense and cheap to subset.
//
// Columns are value-shippable: the zero value is an empty column, and all
// fields are exported for gob encoding when workers exchange column data.
type Column struct {
	Name   string
	Kind   Kind
	Floats []float64 // numeric values; NaN also counts as missing
	Cats   []int32   // categorical level codes in [0, len(Levels))
	Levels []string  // categorical level names; nil for numeric columns
	Miss   []uint64  // missing bitmap, bit i => row i is missing; nil if none

	// sortIdx caches SortIndex's presorted permutation and RunOrder's
	// run-start bitmap. It is unexported so gob transfers never ship it: a
	// freshly received replica or gathered shard rebuilds it lazily on first
	// use.
	sortIdx atomic.Pointer[sortCache]
}

// NewNumeric builds a numeric column over values. The slice is retained, not
// copied. NaN entries are recorded as missing.
func NewNumeric(name string, values []float64) *Column {
	c := &Column{Name: name, Kind: Numeric, Floats: values}
	for i, v := range values {
		if math.IsNaN(v) {
			c.SetMissing(i)
		}
	}
	return c
}

// NewCategorical builds a categorical column over level codes. Codes must be
// in [0, len(levels)) for non-missing rows; use SetMissing for missing rows.
func NewCategorical(name string, codes []int32, levels []string) *Column {
	return &Column{Name: name, Kind: Categorical, Cats: codes, Levels: levels}
}

// Len returns the number of rows in the column.
func (c *Column) Len() int {
	if c.Kind == Numeric {
		return len(c.Floats)
	}
	return len(c.Cats)
}

// NumLevels returns the number of categorical levels (0 for numeric columns).
func (c *Column) NumLevels() int { return len(c.Levels) }

// IsMissing reports whether the value at row i is missing.
func (c *Column) IsMissing(i int) bool {
	if c.Miss == nil {
		return false
	}
	w := i >> 6
	if w >= len(c.Miss) {
		return false
	}
	return c.Miss[w]&(1<<(uint(i)&63)) != 0
}

// SetMissing marks row i as missing, growing the bitmap as needed. The
// bitmap's capacity grows geometrically, so marking rows in increasing order
// costs amortised O(1) each.
func (c *Column) SetMissing(i int) {
	w := i >> 6
	if n := len(c.Miss); w >= n {
		c.Miss = slices.Grow(c.Miss, w+1-n)[:w+1]
		clear(c.Miss[n:])
	}
	c.Miss[w] |= 1 << (uint(i) & 63)
}

// MissingCount returns the number of missing rows.
func (c *Column) MissingCount() int {
	n := 0
	for _, w := range c.Miss {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// Float returns the numeric value at row i. It panics on categorical columns.
func (c *Column) Float(i int) float64 {
	if c.Kind != Numeric {
		panic("dataset: Float on categorical column " + c.Name)
	}
	return c.Floats[i]
}

// Cat returns the categorical code at row i. It panics on numeric columns.
func (c *Column) Cat(i int) int32 {
	if c.Kind != Categorical {
		panic("dataset: Cat on numeric column " + c.Name)
	}
	return c.Cats[i]
}

// Gather returns a new column holding the values of this column at the given
// rows, in order. Missing flags are carried over. This is the operation a
// data-serving worker performs when a key worker requests the rows I_x of a
// column for a subtree-task.
func (c *Column) Gather(rows []int32) *Column {
	out := &Column{Name: c.Name, Kind: c.Kind, Levels: c.Levels}
	switch c.Kind {
	case Numeric:
		out.Floats = make([]float64, len(rows))
		for i, r := range rows {
			out.Floats[i] = c.Floats[r]
		}
	case Categorical:
		out.Cats = make([]int32, len(rows))
		for i, r := range rows {
			out.Cats[i] = c.Cats[r]
		}
	}
	if c.Miss != nil {
		// Size the bitmap once, then trim it to the last set word so it is
		// exactly what SetMissing row by row would have built.
		miss := make([]uint64, (len(rows)+63)/64)
		last := -1
		for i, r := range rows {
			if c.IsMissing(int(r)) {
				miss[i>>6] |= 1 << (uint(i) & 63)
				last = i >> 6
			}
		}
		if last >= 0 {
			out.Miss = miss[:last+1]
		}
	}
	return out
}

// Clone returns a deep copy of the column.
func (c *Column) Clone() *Column {
	out := &Column{Name: c.Name, Kind: c.Kind}
	if c.Floats != nil {
		out.Floats = append([]float64(nil), c.Floats...)
	}
	if c.Cats != nil {
		out.Cats = append([]int32(nil), c.Cats...)
	}
	if c.Levels != nil {
		out.Levels = append([]string(nil), c.Levels...)
	}
	if c.Miss != nil {
		out.Miss = append([]uint64(nil), c.Miss...)
	}
	return out
}

// ByteSize estimates the in-memory footprint of the column payload, used by
// the transport layer's bandwidth accounting.
func (c *Column) ByteSize() int {
	n := 8*len(c.Floats) + 4*len(c.Cats) + 8*len(c.Miss)
	for _, l := range c.Levels {
		n += len(l)
	}
	return n + len(c.Name)
}

// Validate checks internal consistency and returns a descriptive error on
// the first violation found.
func (c *Column) Validate() error {
	switch c.Kind {
	case Numeric:
		if c.Cats != nil || c.Levels != nil {
			return fmt.Errorf("column %q: numeric column has categorical payload", c.Name)
		}
	case Categorical:
		if c.Floats != nil {
			return fmt.Errorf("column %q: categorical column has numeric payload", c.Name)
		}
		for i, code := range c.Cats {
			if c.IsMissing(i) {
				continue
			}
			if code < 0 || int(code) >= len(c.Levels) {
				return fmt.Errorf("column %q: row %d code %d out of range [0,%d)", c.Name, i, code, len(c.Levels))
			}
		}
	default:
		return fmt.Errorf("column %q: unknown kind %d", c.Name, c.Kind)
	}
	return nil
}
