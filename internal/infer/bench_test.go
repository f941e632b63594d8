package infer

import (
	"bytes"
	"strconv"
	"sync"
	"testing"

	"treeserver/internal/cluster"
	"treeserver/internal/core"
	"treeserver/internal/dataset"
	"treeserver/internal/forest"
	"treeserver/internal/model"
	"treeserver/internal/synth"
)

func benchModel(b *testing.B) (*model.File, *Model, []map[string]string) {
	b.Helper()
	spec := synth.Spec{Name: "bench", Rows: 4000, NumNumeric: 6, NumCategorical: 2,
		CatLevels: 8, NumClasses: 3, MissingRate: 0.05, ConceptDepth: 5, Seed: 91}
	train, test := synth.Generate(spec, 0.25)
	f, err := forest.Train(&forest.Local{Table: train}, cluster.SchemaOf(train),
		forest.Config{Trees: 8, Params: core.Defaults(), ColFrac: -1, Bootstrap: true, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.SaveForest(&buf, "bench", f, model.SchemaOf(train)); err != nil {
		b.Fatal(err)
	}
	mf, err := model.Load(&buf)
	if err != nil {
		b.Fatal(err)
	}
	m, err := Compile(mf)
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]map[string]string, 256)
	for r := range rows {
		rows[r] = rowToMap(test, r)
	}
	return mf, m, rows
}

// BenchmarkInterpreterPredict is the legacy path: schema scan parse + pointer
// tree walk, per batch of 256 rows.
func BenchmarkInterpreterPredict(b *testing.B) {
	mf, _, rows := benchModel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl, err := mf.Schema.ParseRows(rows)
		if err != nil {
			b.Fatal(err)
		}
		_ = mf.Predict(tbl)
	}
}

// BenchmarkCompiledPredict is the compiled path: dict parse into a pooled
// block + lockstep traversal, per batch of 256 rows.
func BenchmarkCompiledPredict(b *testing.B) {
	_, m, rows := benchModel(b)
	block := m.GetBlock()
	res := m.GetResult()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		block.Reset()
		for _, row := range rows {
			if err := m.AppendRow(block, row); err != nil {
				b.Fatal(err)
			}
		}
		m.Predict(block, res, 0)
	}
}

// BenchmarkCompiledDepth4 shows the truncation dial's effect on traversal.
func BenchmarkCompiledDepth4(b *testing.B) {
	_, m, rows := benchModel(b)
	block := m.GetBlock()
	for _, row := range rows {
		if err := m.AppendRow(block, row); err != nil {
			b.Fatal(err)
		}
	}
	res := m.GetResult()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(block, res, 4)
	}
}

// serveShape is a model and request at the serve_batch workload's shape:
// 12 numeric and 4 categorical features (8 levels), 3 classes, 24 trees of
// depth 10, one 1024-row body of string-valued cells with missing cells
// left out.
var serveShape struct {
	once  sync.Once
	m     *Model
	body  []byte
	nrows int
}

func serveShapeFixture(b *testing.B) (*Model, []byte, int) {
	b.Helper()
	serveShape.once.Do(func() {
		spec := synth.Spec{Name: "serve", Rows: 20000, NumNumeric: 12, NumCategorical: 4,
			CatLevels: 8, NumClasses: 3, MissingRate: 0.01, ConceptDepth: 5, LabelNoise: 0.3, Seed: 7}
		train, test := synth.Generate(spec, 0.2)
		params := core.Defaults()
		params.MaxDepth = 10
		f, err := forest.Train(&forest.Local{Table: train}, cluster.SchemaOf(train),
			forest.Config{Trees: 24, Params: params, ColFrac: -1, Bootstrap: true, Seed: 1007})
		if err != nil {
			panic(err)
		}
		var buf bytes.Buffer
		if err := model.SaveForest(&buf, "serve", f, model.SchemaOf(train)); err != nil {
			panic(err)
		}
		mf, err := model.Load(&buf)
		if err != nil {
			panic(err)
		}
		if serveShape.m, err = Compile(mf); err != nil {
			panic(err)
		}
		serveShape.nrows = 1024
		serveShape.body = renderRequest(test, serveShape.nrows)
	})
	return serveShape.m, serveShape.body, serveShape.nrows
}

// renderRequest writes the first n rows of tbl as a /v1 predict body the way
// a client sends them: quoted cells, shortest round-trip numerics, missing
// cells left out.
func renderRequest(tbl *dataset.Table, n int) []byte {
	var b bytes.Buffer
	b.WriteString(`{"rows":[`)
	for r := 0; r < n; r++ {
		if r > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('{')
		first := true
		for _, c := range tbl.FeatureIndexes() {
			col := tbl.Cols[c]
			if col.IsMissing(r) {
				continue
			}
			if !first {
				b.WriteByte(',')
			}
			first = false
			b.WriteString(strconv.Quote(col.Name))
			b.WriteByte(':')
			if col.Kind == dataset.Numeric {
				b.WriteString(strconv.Quote(strconv.FormatFloat(col.Floats[r], 'g', -1, 64)))
			} else {
				b.WriteString(strconv.Quote(col.Levels[col.Cats[r]]))
			}
		}
		b.WriteByte('}')
	}
	b.WriteString(`]}`)
	return b.Bytes()
}

// BenchmarkDecodeRequest times the /v1 ingest path alone on a 1024-row
// body; ns/row is the figure to compare.
func BenchmarkDecodeRequest(b *testing.B) {
	m, body, n := serveShapeFixture(b)
	block := m.GetBlock()
	defer m.PutBlock(block)
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		block.Reset()
		if _, err := m.DecodeRequest(block, body, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
}

// BenchmarkPredictBlock times forest traversal alone over a decoded
// 1024-row block; ns/row is the figure to compare.
func BenchmarkPredictBlock(b *testing.B) {
	m, body, n := serveShapeFixture(b)
	block := m.GetBlock()
	defer m.PutBlock(block)
	if _, err := m.DecodeRequest(block, body, 0); err != nil {
		b.Fatal(err)
	}
	res := m.GetResult()
	defer m.PutResult(res)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(block, res, 0)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
}
