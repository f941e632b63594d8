package dataset

// RowSet is a counted membership set over the rows of one table: counts[r]
// is the multiplicity of row r in the current node's row set I_x. Split
// finders walk a column's presorted RunOrder filtered through a RowSet to
// evaluate dense nodes in O(tableRows) with no sorting and no allocation.
//
// Multiplicities matter: bootstrap bags sample rows with replacement, so a
// plain bitmap would silently deduplicate bagged rows and change every
// impurity downstream. A RowSet holds whatever multiset its Add/AddAll calls
// built.
//
// A RowSet is not safe for concurrent mutation; each comper owns one and
// reuses it across column-tasks via AddAll/RemoveAll pairs, which cost
// O(|rows|) rather than the O(tableRows) of a full Reset.
type RowSet struct {
	counts []int32
	n      int
}

// NewRowSet returns an empty RowSet over tables of numRows rows.
func NewRowSet(numRows int) *RowSet {
	return &RowSet{counts: make([]int32, numRows)}
}

// RowSetOf builds a RowSet holding the given row multiset.
func RowSetOf(rows []int32, numRows int) *RowSet {
	s := NewRowSet(numRows)
	s.AddAll(rows)
	return s
}

// Cap returns the table size the set indexes over.
func (s *RowSet) Cap() int { return len(s.counts) }

// Len returns the total multiplicity (|I_x| counting duplicates).
func (s *RowSet) Len() int { return s.n }

// Count returns the multiplicity of row r.
func (s *RowSet) Count(r int32) int32 { return s.counts[r] }

// Contains reports whether row r has multiplicity >= 1.
func (s *RowSet) Contains(r int32) bool { return s.counts[r] > 0 }

// Add increments row r's multiplicity.
func (s *RowSet) Add(r int32) {
	s.counts[r]++
	s.n++
}

// Remove decrements row r's multiplicity. Removing a row that is not in the
// set leaves a negative count; callers must pair Remove with a prior Add.
func (s *RowSet) Remove(r int32) {
	s.counts[r]--
	s.n--
}

// AddAll adds every row of the slice (duplicates accumulate).
func (s *RowSet) AddAll(rows []int32) {
	for _, r := range rows {
		s.counts[r]++
	}
	s.n += len(rows)
}

// RemoveAll removes every row of the slice, undoing a matching AddAll.
func (s *RowSet) RemoveAll(rows []int32) {
	for _, r := range rows {
		s.counts[r]--
	}
	s.n -= len(rows)
}

// Reset clears the set in O(Cap). Prefer RemoveAll with the rows previously
// added when reusing a set across nodes.
func (s *RowSet) Reset() {
	for i := range s.counts {
		s.counts[i] = 0
	}
	s.n = 0
}
