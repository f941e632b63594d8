package infer

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"testing"

	"treeserver/internal/boost"
	"treeserver/internal/cluster"
	"treeserver/internal/core"
	"treeserver/internal/dataset"
	"treeserver/internal/forest"
	"treeserver/internal/model"
	"treeserver/internal/synth"
)

// trainForestFile trains a forest on the spec and round-trips it through the
// gob model format, exactly as a served model arrives.
func trainForestFile(t testing.TB, spec synth.Spec, trees, maxDepth int) (*model.File, *dataset.Table) {
	t.Helper()
	train, test := synth.Generate(spec, 0.3)
	params := core.Defaults()
	if maxDepth > 0 {
		params.MaxDepth = maxDepth
	}
	f, err := forest.Train(&forest.Local{Table: train}, cluster.SchemaOf(train),
		forest.Config{Trees: trees, Params: params, ColFrac: -1, Bootstrap: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.SaveForest(&buf, spec.Name, f, model.SchemaOf(train)); err != nil {
		t.Fatal(err)
	}
	mf, err := model.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return mf, test
}

func trainBoostFile(t *testing.T, spec synth.Spec, rounds int) (*model.File, *dataset.Table) {
	t.Helper()
	train, test := synth.Generate(spec, 0.3)
	bm, err := boost.Train(train, boost.Config{Rounds: rounds, MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.SaveBoost(&buf, spec.Name, bm, model.SchemaOf(train)); err != nil {
		t.Fatal(err)
	}
	mf, err := model.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return mf, test
}

// rowToMap renders table row r the way an HTTP client would send it: numeric
// cells as shortest round-trip decimal strings, categorical cells as level
// strings, missing cells as "" / "NA" / omitted in rotation so every missing
// spelling is exercised.
func rowToMap(tbl *dataset.Table, r int) map[string]string {
	out := make(map[string]string, len(tbl.Cols))
	missSpelling := 0
	for ci, col := range tbl.Cols {
		if ci == tbl.Target {
			continue
		}
		if col.IsMissing(r) {
			switch missSpelling % 3 {
			case 0:
				out[col.Name] = ""
			case 1:
				out[col.Name] = "NA"
			default: // omitted key
			}
			missSpelling++
			continue
		}
		if col.Kind == dataset.Numeric {
			out[col.Name] = strconv.FormatFloat(col.Floats[r], 'g', -1, 64)
		} else {
			out[col.Name] = col.Levels[col.Cats[r]]
		}
	}
	return out
}

// propertySpecs is the equivalence grid: classification and regression,
// numeric-only and mixed categorical, missing values, binary and multiclass.
func propertySpecs() []synth.Spec {
	return []synth.Spec{
		{Name: "cls-mixed", Rows: 1200, NumNumeric: 3, NumCategorical: 2, CatLevels: 5,
			NumClasses: 2, MissingRate: 0.1, ConceptDepth: 4, Seed: 11},
		{Name: "cls-numeric", Rows: 1000, NumNumeric: 4, NumClasses: 3,
			ConceptDepth: 4, Seed: 12},
		{Name: "cls-wide-cat", Rows: 1500, NumNumeric: 1, NumCategorical: 3, CatLevels: 70,
			NumClasses: 4, MissingRate: 0.05, ConceptDepth: 5, Seed: 13},
		{Name: "reg-mixed", Rows: 1200, NumNumeric: 3, NumCategorical: 2, CatLevels: 5,
			NumClasses: 0, MissingRate: 0.1, ConceptDepth: 4, Seed: 14},
		{Name: "reg-numeric", Rows: 1000, NumNumeric: 4, NumClasses: 0,
			ConceptDepth: 4, Seed: 15},
		{Name: "cls-all-cat", Rows: 1200, NumCategorical: 3, CatLevels: 6,
			NumClasses: 3, MissingRate: 0.05, ConceptDepth: 4, Seed: 16},
	}
}

// equivalenceBlockSizes covers the lockstep walk's edges: empty, a single
// row, one short of a full group of lanes, exactly one, one over, two groups
// and a ragged tail, and a serving-size batch.
var equivalenceBlockSizes = []int{0, 1, 7, 8, 9, 17, 1024}

// TestForestEquivalence holds the compiled engine to bit-identical
// predictions against the interpreter over the property grid (numeric-only,
// mixed and 70-level categorical, classification and regression), at full
// depth and at every truncation depth 1..dmax, for every block size in
// equivalenceBlockSizes, through both ingestion paths (string maps and
// parsed tables). The rows include every way a walk stops early: missing
// numeric cells in each tree's root column, missing and unseen categorical
// codes.
func TestForestEquivalence(t *testing.T) {
	for _, spec := range propertySpecs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			mf, test := trainForestFile(t, spec, 5, 6)
			m, err := Compile(mf)
			if err != nil {
				t.Fatal(err)
			}
			if m.Kind() != "forest" {
				t.Fatalf("kind = %q", m.Kind())
			}

			// Client-shaped rows: every seventh misses a tree's root split
			// feature, and categorical cells are sometimes missing and
			// sometimes a level the model never saw.
			trees := mf.Forest.Trees
			rows := make([]map[string]string, test.NumRows())
			for r := range rows {
				rows[r] = rowToMap(test, r)
				if r%7 == 0 {
					root := trees[(r/7)%len(trees)].Root
					if !root.IsLeaf() {
						rows[r][mf.Schema.Names[root.Cond.Col]] = "NA"
					}
				}
				if spec.NumCategorical > 0 {
					switch cat := test.Cols[spec.NumNumeric+r%spec.NumCategorical].Name; {
					case r%17 == 0:
						rows[r][cat] = "NEVER-SEEN-LEVEL"
					case r%11 == 0:
						rows[r][cat] = ""
					}
				}
			}
			parsed, err := mf.Schema.ParseRows(rows)
			if err != nil {
				t.Fatal(err)
			}
			rootNaN := 0
			for r := range rows {
				if root := trees[0].Root; !root.IsLeaf() && parsed.Cols[root.Cond.Col].IsMissing(r) {
					rootNaN++
				}
			}
			if rootNaN == 0 {
				t.Fatal("no row misses tree 0's root feature")
			}

			res := m.GetResult()
			defer m.PutResult(res)
			for _, size := range equivalenceBlockSizes {
				block := m.GetBlock()
				for i := 0; i < size; i++ {
					if err := m.AppendRow(block, rows[i%len(rows)]); err != nil {
						t.Fatal(err)
					}
				}
				for depth := 0; depth <= m.MaxTreeDepth(); depth++ {
					m.Predict(block, res, depth)
					if res.Len() != size {
						t.Fatalf("size %d: result holds %d rows", size, res.Len())
					}
					for i := 0; i < size; i++ {
						r := i % len(rows)
						if spec.Regression() {
							want := mf.Forest.PredictValue(parsed, r, depth)
							if got := res.Value(i); got != want {
								t.Fatalf("size %d depth %d row %d: value %v != %v", size, depth, r, got, want)
							}
							continue
						}
						wantPMF := mf.Forest.PredictPMF(parsed, r, depth)
						gotPMF := res.PMF(i)
						if len(gotPMF) != len(wantPMF) {
							t.Fatalf("depth %d row %d: pmf len %d != %d", depth, r, len(gotPMF), len(wantPMF))
						}
						for c := range wantPMF {
							if gotPMF[c] != wantPMF[c] {
								t.Fatalf("size %d depth %d row %d class %d: pmf %v != %v",
									size, depth, r, c, gotPMF[c], wantPMF[c])
							}
						}
						if got, want := res.Class(i), mf.Forest.PredictClass(parsed, r, depth); got != want {
							t.Fatalf("size %d depth %d row %d: class %d != %d", size, depth, r, got, want)
						}
					}
				}
				m.PutBlock(block)
			}

			block := m.GetBlock()
			defer m.PutBlock(block)
			for _, row := range rows {
				if err := m.AppendRow(block, row); err != nil {
					t.Fatal(err)
				}
			}
			// Full-depth predictions must also match the model-file wrapper
			// (Class strings / Value), the shape the legacy handler serves.
			m.Predict(block, res, 0)
			for r, p := range mf.Predict(parsed) {
				if spec.Regression() {
					if res.Value(r) != p.Value {
						t.Fatalf("row %d: value %v != wrapper %v", r, res.Value(r), p.Value)
					}
				} else if m.Classes()[res.Class(r)] != p.Class {
					t.Fatalf("row %d: class %q != wrapper %q", r, m.Classes()[res.Class(r)], p.Class)
				}
			}

			// The table ingestion path must agree with the map path.
			tb := m.GetBlock()
			defer m.PutBlock(tb)
			for r := 0; r < parsed.NumRows(); r++ {
				if err := m.AppendTableRow(tb, parsed, r); err != nil {
					t.Fatal(err)
				}
			}
			tres := m.GetResult()
			defer m.PutResult(tres)
			m.Predict(tb, tres, 0)
			for r := 0; r < len(rows); r++ {
				if spec.Regression() {
					if tres.Value(r) != res.Value(r) {
						t.Fatalf("row %d: table path value %v != map path %v", r, tres.Value(r), res.Value(r))
					}
				} else if tres.Class(r) != res.Class(r) {
					t.Fatalf("row %d: table path class %d != map path %d", r, tres.Class(r), res.Class(r))
				}
			}
		})
	}
}

// TestBoostEquivalence covers the gradient-boosted kinds: regression, binary
// logistic and multiclass softmax, with missing values and categorical codes
// compared as numeric values.
func TestBoostEquivalence(t *testing.T) {
	specs := []synth.Spec{
		{Name: "gbt-reg", Rows: 1200, NumNumeric: 3, NumCategorical: 1, CatLevels: 5,
			NumClasses: 0, MissingRate: 0.1, ConceptDepth: 4, Seed: 21},
		{Name: "gbt-binary", Rows: 1200, NumNumeric: 3, NumCategorical: 1, CatLevels: 5,
			NumClasses: 2, MissingRate: 0.1, ConceptDepth: 4, Seed: 22},
		{Name: "gbt-multi", Rows: 1200, NumNumeric: 3, NumCategorical: 1, CatLevels: 5,
			NumClasses: 4, MissingRate: 0.1, ConceptDepth: 4, Seed: 23},
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			mf, test := trainBoostFile(t, spec, 8)
			m, err := Compile(mf)
			if err != nil {
				t.Fatal(err)
			}
			if m.Kind() != "boost" || m.DepthTruncation() {
				t.Fatalf("kind %q truncation %v", m.Kind(), m.DepthTruncation())
			}
			rows := make([]map[string]string, test.NumRows())
			for r := range rows {
				rows[r] = rowToMap(test, r)
				if r%13 == 0 {
					rows[r][test.Cols[spec.NumNumeric].Name] = "NEVER-SEEN-LEVEL"
				}
			}
			parsed, err := mf.Schema.ParseRows(rows)
			if err != nil {
				t.Fatal(err)
			}
			block := m.GetBlock()
			for _, row := range rows {
				if err := m.AppendRow(block, row); err != nil {
					t.Fatal(err)
				}
			}
			res := m.GetResult()
			m.Predict(block, res, 0)
			for r := 0; r < len(rows); r++ {
				if spec.Regression() {
					if got, want := res.Value(r), mf.Boost.PredictValue(parsed, r); got != want {
						t.Fatalf("row %d: value %v != %v", r, got, want)
					}
				} else if got, want := res.Class(r), mf.Boost.PredictClass(parsed, r); got != want {
					t.Fatalf("row %d: class %d != %d", r, got, want)
				}
			}
		})
	}
}

// TestAppendRowParsing pins the request-parsing conventions: missing
// spellings, whitespace trimming, unknown feature names ignored, unseen
// levels coded unseen, bad numerics rejected without growing the block.
func TestAppendRowParsing(t *testing.T) {
	spec := synth.Spec{Name: "parse", Rows: 400, NumNumeric: 1, NumCategorical: 1,
		CatLevels: 3, NumClasses: 2, ConceptDepth: 2, Seed: 31}
	mf, _ := trainForestFile(t, spec, 2, 3)
	m, err := Compile(mf)
	if err != nil {
		t.Fatal(err)
	}
	b := m.GetBlock()
	numName, catName := mf.Schema.Names[0], mf.Schema.Names[1]

	if err := m.AppendRow(b, map[string]string{numName: " 1.5 ", catName: " L1 ", "bogus": "x"}); err != nil {
		t.Fatal(err)
	}
	if b.nums[0] != 1.5 || b.cats[0] != 1 {
		t.Fatalf("trimmed row parsed to %v %v", b.nums[0], b.cats[0])
	}
	for _, spelling := range []string{"", "NA", "?"} {
		if err := m.AppendRow(b, map[string]string{numName: spelling, catName: spelling}); err != nil {
			t.Fatal(err)
		}
	}
	for r := 1; r <= 3; r++ {
		if v := b.nums[r]; !math.IsNaN(v) {
			t.Fatalf("row %d numeric = %v, want NaN", r, v)
		}
		if c := b.cats[r]; c != missingCode {
			t.Fatalf("row %d categorical = %d, want %d", r, c, missingCode)
		}
	}
	if err := m.AppendRow(b, map[string]string{catName: "martian"}); err != nil {
		t.Fatal(err)
	}
	if c := b.cats[4]; c != unseenCode {
		t.Fatalf("unseen level coded %d, want %d", c, unseenCode)
	}
	n := b.Len()
	if err := m.AppendRow(b, map[string]string{numName: "not-a-number"}); err == nil {
		t.Fatal("bad numeric accepted")
	}
	if b.Len() != n {
		t.Fatalf("failed append grew block to %d rows", b.Len())
	}
}

func TestCompileRejects(t *testing.T) {
	if _, err := Compile(nil); err == nil {
		t.Fatal("nil file accepted")
	}
	spec := synth.Spec{Name: "rej", Rows: 300, NumNumeric: 2, NumClasses: 2, ConceptDepth: 2, Seed: 41}
	mf, _ := trainForestFile(t, spec, 2, 3)
	hollow := *mf
	hollow.Forest = nil
	if _, err := Compile(&hollow); err == nil {
		t.Fatal("payload-less file accepted")
	}
}

// TestPredictZeroAlloc proves the steady-state parse+predict path allocates
// nothing once the pooled buffers have warmed up.
func TestPredictZeroAlloc(t *testing.T) {
	spec := synth.Spec{Name: "alloc", Rows: 1500, NumNumeric: 3, NumCategorical: 1,
		CatLevels: 4, NumClasses: 3, MissingRate: 0.05, ConceptDepth: 4, Seed: 51}
	mf, test := trainForestFile(t, spec, 5, 6)
	m, err := Compile(mf)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]map[string]string, 64)
	for r := range rows {
		rows[r] = rowToMap(test, r)
	}
	block := m.GetBlock()
	res := m.GetResult()
	work := func() {
		block.Reset()
		for _, row := range rows {
			if err := m.AppendRow(block, row); err != nil {
				panic(err)
			}
		}
		m.Predict(block, res, 0)
	}
	work() // warm-up grows the buffers
	if avg := testing.AllocsPerRun(100, work); avg != 0 {
		t.Fatalf("steady-state predict allocates %.1f per batch, want 0", avg)
	}
}

// TestDepthTruncationMonotone sanity-checks the Appendix D dial: depth-1
// predictions differ from full-depth on some rows, and truncating at dmax
// equals full depth.
func TestDepthTruncationMonotone(t *testing.T) {
	spec := synth.Spec{Name: "trunc", Rows: 2000, NumNumeric: 4, NumClasses: 2,
		ConceptDepth: 5, Seed: 61}
	mf, test := trainForestFile(t, spec, 4, 7)
	m, err := Compile(mf)
	if err != nil {
		t.Fatal(err)
	}
	block := m.GetBlock()
	for r := 0; r < test.NumRows(); r++ {
		if err := m.AppendRow(block, rowToMap(test, r)); err != nil {
			t.Fatal(err)
		}
	}
	full, shallow, capped := m.GetResult(), m.GetResult(), m.GetResult()
	m.Predict(block, full, 0)
	m.Predict(block, shallow, 1)
	m.Predict(block, capped, m.MaxTreeDepth())
	differ := false
	for r := 0; r < block.Len(); r++ {
		for i, p := range full.PMF(r) {
			if shallow.PMF(r)[i] != p {
				differ = true
			}
			if capped.PMF(r)[i] != p {
				t.Fatalf("row %d: dmax-capped pmf differs from full depth", r)
			}
		}
	}
	if !differ {
		t.Fatal("depth-1 predictions identical to full depth; truncation dial inert")
	}
}

func ExampleModel_Predict() {
	train, _ := synth.Generate(synth.Spec{
		Name: "ex", Rows: 800, NumNumeric: 2, NumClasses: 2, ConceptDepth: 3, Seed: 71,
	}, 0)
	f, _ := forest.Train(&forest.Local{Table: train}, cluster.SchemaOf(train),
		forest.Config{Trees: 3, Params: core.Defaults(), ColFrac: -1, Bootstrap: true, Seed: 1})
	var buf bytes.Buffer
	_ = model.SaveForest(&buf, "ex", f, model.SchemaOf(train))
	mf, _ := model.Load(&buf)

	m, _ := Compile(mf)
	block := m.GetBlock()
	_ = m.AppendRow(block, map[string]string{"num0": "0.4", "num1": "-1.2"})
	res := m.GetResult()
	m.Predict(block, res, 0)
	fmt.Println(m.Classes()[res.Class(0)] != "")
	// Output: true
}
