package infer

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"

	"treeserver/internal/dataset"
	"treeserver/internal/synth"
)

func decodeTestModel(t *testing.T) (*Model, []map[string]string) {
	t.Helper()
	spec := synth.Spec{Name: "jsonrow", Rows: 900, NumNumeric: 2, NumCategorical: 2,
		CatLevels: 5, NumClasses: 2, MissingRate: 0.15, ConceptDepth: 3, Seed: 81}
	mf, test := trainForestFile(t, spec, 3, 4)
	m, err := Compile(mf)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]map[string]string, test.NumRows())
	for r := range rows {
		rows[r] = rowToMap(test, r)
	}
	return m, rows
}

func blocksEqual(t *testing.T, a, b *RowBlock) {
	t.Helper()
	if a.n != b.n {
		t.Fatalf("row counts %d != %d", a.n, b.n)
	}
	for i := 0; i < a.n*a.numStride; i++ {
		av, bv := a.nums[i], b.nums[i]
		if av != bv && !(math.IsNaN(av) && math.IsNaN(bv)) {
			t.Fatalf("nums[%d]: %v != %v", i, av, bv)
		}
	}
	for i := 0; i < a.n*a.catStride; i++ {
		if a.cats[i] != b.cats[i] {
			t.Fatalf("cats[%d]: %d != %d", i, a.cats[i], b.cats[i])
		}
	}
}

// TestDecodeRequestMatchesAppendRow proves the hand-rolled scanner and the
// map path load bit-identical blocks from the same logical rows.
func TestDecodeRequestMatchesAppendRow(t *testing.T) {
	m, rows := decodeTestModel(t)
	body, err := json.Marshal(map[string]any{"rows": rows})
	if err != nil {
		t.Fatal(err)
	}

	viaMaps := m.GetBlock()
	for _, row := range rows {
		if err := m.AppendRow(viaMaps, row); err != nil {
			t.Fatal(err)
		}
	}
	viaJSON := m.GetBlock()
	depth, err := m.DecodeRequest(viaJSON, body, 0)
	if err != nil {
		t.Fatal(err)
	}
	if depth != 0 {
		t.Fatalf("absent max_depth decoded as %d", depth)
	}
	blocksEqual(t, viaMaps, viaJSON)
}

// TestDecodeRequestForms covers the value forms the scanner accepts beyond
// plain strings: native numbers, nulls, booleans for categorical cells,
// escaped strings, unknown keys with nested values, and max_depth.
func TestDecodeRequestForms(t *testing.T) {
	m, _ := decodeTestModel(t)
	names := m.Schema().Names // num0 num1 cat0 cat1 target
	body := `{
		"max_depth": 2,
		"ignored": {"nested": [1, "two", {"three": null}], "b": true},
		"rows": [
			{"` + names[0] + `": 1.25e1, "` + names[1] + `": -0.5, "` + names[2] + `": "L1", "` + names[3] + `": null},
			{"` + names[0] + `": " 3.5 ", "` + names[2] + `": "martian", "unknown": [{}], "` + names[3] + `": true},
			{}
		]
	}`
	b := m.GetBlock()
	depth, err := m.DecodeRequest(b, []byte(body), 0)
	if err != nil {
		t.Fatal(err)
	}
	if depth != 2 {
		t.Fatalf("max_depth = %d", depth)
	}
	if b.Len() != 3 {
		t.Fatalf("rows = %d", b.Len())
	}
	if b.nums[0] != 12.5 || b.nums[1] != -0.5 {
		t.Fatalf("row 0 nums = %v", b.nums[:2])
	}
	if b.cats[0] != 1 { // "L1" unescapes to L1
		t.Fatalf("row 0 cat0 = %d", b.cats[0])
	}
	if b.cats[1] != missingCode { // explicit null
		t.Fatalf("row 0 cat1 = %d", b.cats[1])
	}
	if b.nums[2] != 3.5 { // quoted, padded numeric
		t.Fatalf("row 1 num0 = %v", b.nums[2])
	}
	if !math.IsNaN(b.nums[3]) { // omitted numeric
		t.Fatalf("row 1 num1 = %v", b.nums[3])
	}
	if b.cats[2] != unseenCode { // unknown level
		t.Fatalf("row 1 cat0 = %d", b.cats[2])
	}
	if b.cats[3] != unseenCode { // boolean for a categorical: literal text lookup
		t.Fatalf("row 1 cat1 = %d", b.cats[3])
	}
	for i := 4; i < 6; i++ { // empty row object: all missing
		if !math.IsNaN(b.nums[i]) {
			t.Fatalf("row 2 num = %v", b.nums[i])
		}
	}

	// A repeated "rows" replaces the earlier array, as encoding/json keeps
	// the last value, and the row cap applies to the kept array only.
	b.Reset()
	twice := `{"rows":[{"` + names[0] + `":"1"},{},{}],"rows":[{"` + names[0] + `":"7"}]}`
	if _, err := m.DecodeRequest(b, []byte(twice), 2); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 1 || b.nums[0] != 7 {
		t.Fatalf("repeated rows decoded to %d rows, num0 = %v", b.Len(), b.nums[0])
	}
	b.Reset()
	if _, err := m.DecodeRequest(b, []byte(`{"rows":[{}],"rows":[{},{},{}]}`), 2); !errors.Is(err, ErrTooManyRows) {
		t.Fatalf("kept array over the cap: err = %v", err)
	}
	// Likewise a repeated feature key: the last value wins, even over a bad one.
	b.Reset()
	dup := `{"rows":[{"` + names[0] + `":"abc","` + names[0] + `":2,"` + names[1] + `":3,"` + names[1] + `":"NA"}]}`
	if _, err := m.DecodeRequest(b, []byte(dup), 0); err != nil {
		t.Fatal(err)
	}
	if b.nums[0] != 2 || !math.IsNaN(b.nums[1]) {
		t.Fatalf("repeated keys decoded to %v", b.nums[:2])
	}
}

func TestDecodeRequestErrors(t *testing.T) {
	m, _ := decodeTestModel(t)
	num := m.Schema().Names[0]
	bad := []string{
		``, `[`, `{`, `{"rows":}`, `{"rows":[}`, `{"rows":[{]}`,
		`{"rows":[{"` + num + `": }]}`,
		`{"rows":[{"` + num + `": "abc"}]}`,
		`{"rows":[{"` + num + `": true}]}`,
		`{"rows":[{"` + num + `": [1]}]}`,
		`{"rows":[{"` + num + `": {"a":1}}]}`,
		`{"rows":[{"` + num + `": 1} {"` + num + `": 2}]}`,
		`{"max_depth": 1.5, "rows":[]}`,
		`{"max_depth": 1}`, // rows required
		`{"rows":"nope"}`,
		`{"rows":[{"` + num + `": "\q"}]}`,
		`{"rows":[{"` + num + `": "\u12"}]}`,
		`{"rows":[]} x`,                       // data after the object
		`{"rows":[],}`,                        // trailing comma
		`{"rows":[{"` + num + `": 1,}]}`,      // trailing comma in a row
		`{"rows":[{"` + num + `": 012}]}`,     // leading zero
		`{"rows":[{"` + num + `": 1.}]}`,      // no fraction digits
		`{"rows":[{"` + num + `": "1e999"}]}`, // out of range
		`{"rows":[{"` + num + `": "1\u0000"}]}`,
		`{"rows":[], "x":` + strings.Repeat("[", maxNesting) + strings.Repeat("]", maxNesting) + `}`,
	}
	for _, body := range bad {
		b := m.GetBlock()
		if _, err := m.DecodeRequest(b, []byte(body), 0); err == nil {
			t.Errorf("accepted %q", body)
		}
		m.PutBlock(b)
	}
}

func TestDecodeRequestRowCap(t *testing.T) {
	m, _ := decodeTestModel(t)
	body := `{"rows":[{},{},{},{}]}`
	b := m.GetBlock()
	_, err := m.DecodeRequest(b, []byte(body), 2)
	if !errors.Is(err, ErrTooManyRows) {
		t.Fatalf("err = %v, want ErrTooManyRows", err)
	}
	b.Reset()
	if _, err := m.DecodeRequest(b, []byte(body), 4); err != nil {
		t.Fatalf("at the cap: %v", err)
	}
}

// TestDecodeRequestZeroAlloc proves the JSON ingest path allocates nothing
// in steady state — the property that makes the /v1 hot path pool-friendly.
func TestDecodeRequestZeroAlloc(t *testing.T) {
	m, rows := decodeTestModel(t)
	body, err := json.Marshal(map[string]any{"rows": rows[:64], "max_depth": 3})
	if err != nil {
		t.Fatal(err)
	}
	// Include an escape so the scratch path warms up too.
	body = []byte(strings.Replace(string(body), `"L1"`, `"L1"`, 1))
	b := m.GetBlock()
	res := m.GetResult()
	work := func() {
		b.Reset()
		depth, err := m.DecodeRequest(b, body, 100000)
		if err != nil {
			panic(err)
		}
		m.Predict(b, res, depth)
	}
	work()
	if avg := testing.AllocsPerRun(100, work); avg != 0 {
		t.Fatalf("steady-state decode+predict allocates %.1f per request, want 0", avg)
	}
}

// TestDecodeEquivalentPredictions ties it together: a JSON-decoded block
// predicts identically to the interpreter on the same rows.
func TestDecodeEquivalentPredictions(t *testing.T) {
	m, rows := decodeTestModel(t)
	mf, _ := trainForestFile(t, synth.Spec{Name: "jsonrow", Rows: 900, NumNumeric: 2,
		NumCategorical: 2, CatLevels: 5, NumClasses: 2, MissingRate: 0.15,
		ConceptDepth: 3, Seed: 81}, 3, 4)
	body, err := json.Marshal(map[string]any{"rows": rows})
	if err != nil {
		t.Fatal(err)
	}
	b := m.GetBlock()
	if _, err := m.DecodeRequest(b, body, 0); err != nil {
		t.Fatal(err)
	}
	res := m.GetResult()
	m.Predict(b, res, 0)
	parsed, err := mf.Schema.ParseRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	for r, p := range mf.Predict(parsed) {
		if got := m.Classes()[res.Class(r)]; got != p.Class {
			t.Fatalf("row %d: %q != %q", r, got, p.Class)
		}
	}
}

// referenceDecode is the contract DecodeRequest keeps, written the slow,
// obvious way: decode the body with encoding/json, apply the request
// shape's value rules (rows an array of objects; strings, numbers and nulls
// as cells, booleans only for categorical columns; an integer max_depth),
// then call AppendRow per row.
func referenceDecode(m *Model, b *RowBlock, body []byte, maxRows int) (int, error) {
	var env map[string]json.RawMessage
	if err := json.Unmarshal(body, &env); err != nil {
		return 0, err
	}
	rawRows, ok := env["rows"]
	if !ok {
		return 0, errors.New("no rows")
	}
	depth := 0
	if raw, ok := env["max_depth"]; ok {
		n, ok := decodeAny(raw).(json.Number)
		if !ok {
			return 0, errors.New("max_depth is not a number")
		}
		d, err := strconv.Atoi(string(n))
		if err != nil {
			return 0, err
		}
		depth = d
	}
	var rows []json.RawMessage
	if rawRows[0] != '[' {
		return 0, errors.New("rows is not an array")
	}
	if err := json.Unmarshal(rawRows, &rows); err != nil {
		return 0, err
	}
	if maxRows > 0 && len(rows) > maxRows {
		return 0, ErrTooManyRows
	}
	s := m.Schema()
	for _, raw := range rows {
		cells, ok := decodeAny(raw).(map[string]any)
		if !ok {
			return 0, errors.New("row is not an object")
		}
		strs := make(map[string]string)
		for ci, name := range s.Names {
			v, ok := cells[name]
			if ci == s.Target || !ok {
				continue
			}
			switch v := v.(type) {
			case string:
				strs[name] = v
			case json.Number:
				strs[name] = string(v)
			case nil:
			case bool:
				if s.Kinds[ci] != dataset.Categorical {
					return 0, errors.New("boolean for a numeric column")
				}
				strs[name] = strconv.FormatBool(v)
			default:
				return 0, errors.New("cell is not a scalar")
			}
		}
		if err := m.AppendRow(b, strs); err != nil {
			return 0, err
		}
	}
	return depth, nil
}

// decodeAny decodes one valid JSON value, numbers as json.Number.
func decodeAny(raw []byte) any {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		panic(err) // raw came out of a successful Unmarshal
	}
	return v
}

// FuzzDecodeRequest is differential: DecodeRequest must accept exactly the
// bodies referenceDecode accepts, with and without a row cap, and load
// bit-identical blocks from them. The committed corpus under testdata/fuzz
// covers repeated keys, escapes, surrogates, invalid UTF-8, number forms,
// trailing data, nesting and reordered keys.
func FuzzDecodeRequest(f *testing.F) {
	spec := synth.Spec{Name: "fuzz", Rows: 300, NumNumeric: 2, NumCategorical: 2,
		CatLevels: 5, NumClasses: 2, ConceptDepth: 2, Seed: 83}
	mf, _ := trainForestFile(f, spec, 1, 3)
	m, err := Compile(mf)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(`{"rows":[{"num0":"1.5","num1":-2,"cat0":"L1","cat1":null}],"max_depth":2}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, maxRows := range []int{0, 2} {
			got, want := m.GetBlock(), m.GetBlock()
			gd, gerr := m.DecodeRequest(got, body, maxRows)
			wd, werr := referenceDecode(m, want, body, maxRows)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("maxRows %d: DecodeRequest err %v, reference err %v", maxRows, gerr, werr)
			}
			if gerr == nil {
				if gd != wd {
					t.Fatalf("max_depth %d != reference %d", gd, wd)
				}
				blocksBitEqual(t, got, want)
			}
			m.PutBlock(got)
			m.PutBlock(want)
		}
	})
}

// blocksBitEqual compares two blocks cell for cell, floats by their bits.
func blocksBitEqual(t *testing.T, a, b *RowBlock) {
	t.Helper()
	if a.n != b.n {
		t.Fatalf("row counts %d != %d", a.n, b.n)
	}
	for i, v := range a.nums[:a.n*a.numStride] {
		if math.Float64bits(v) != math.Float64bits(b.nums[i]) {
			t.Fatalf("nums[%d]: %v != %v", i, v, b.nums[i])
		}
	}
	for i, c := range a.cats[:a.n*a.catStride] {
		if c != b.cats[i] {
			t.Fatalf("cats[%d]: %d != %d", i, c, b.cats[i])
		}
	}
}
