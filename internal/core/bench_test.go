package core

import (
	"testing"

	"treeserver/internal/dataset"
	"treeserver/internal/synth"
	"treeserver/internal/task"
)

func benchTable(rows int) *dataset.Table {
	return synth.GenerateTrain(synth.Spec{
		Name: "bench", Rows: rows, NumNumeric: 10, NumCategorical: 4, CatLevels: 6,
		NumClasses: 3, ConceptDepth: 6, LabelNoise: 0.05, Seed: 123,
	})
}

// BenchmarkTrainLocal10k measures exact serial training — the subtree-task
// workload and the fairness baseline.
func BenchmarkTrainLocal10k(b *testing.B) {
	tbl := benchTable(10000)
	rows := dataset.AllRows(tbl.NumRows())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree := TrainLocal(tbl, rows, Defaults())
		if tree.NumNodes < 3 {
			b.Fatal("degenerate tree")
		}
	}
}

// benchTree keeps benchmarked results alive so no call is optimised away.
var benchTree *Tree

// BenchmarkTrainLocalSubtree measures the shapes a subtree-task and the
// serial forest trainer hand TrainLocal: a τ_D-row (default policy) table
// gathered from a larger one, as a key worker assembles D_x; a 64-row task,
// the small-task regime where per-task set-up dominates; and a bootstrap bag
// over a full table whose SortIndex is already cached.
func BenchmarkTrainLocalSubtree(b *testing.B) {
	full := benchTable(40000)
	gather := func(n int) *dataset.Table {
		rows := make([]int32, n)
		for i := range rows {
			rows[i] = int32(i * (full.NumRows() / n))
		}
		return full.Gather(rows)
	}
	bagged := benchTable(10000)
	for _, c := range bagged.Cols {
		c.SortIndex()
	}
	cases := []struct {
		name string
		tbl  *dataset.Table
		rows []int32
	}{
		{"gathered-tauD", gather(task.DefaultPolicy().TauD), dataset.AllRows(task.DefaultPolicy().TauD)},
		{"task-64", gather(64), dataset.AllRows(64)},
		{"bagged-cached", bagged, bootstrap(bagged.NumRows(), 1)},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchTree = TrainLocal(tc.tbl, tc.rows, Defaults())
			}
		})
	}
}

// BenchmarkTrainLocalExtraTrees measures completely-random training.
func BenchmarkTrainLocalExtraTrees(b *testing.B) {
	tbl := benchTable(10000)
	rows := dataset.AllRows(tbl.NumRows())
	params := Defaults()
	params.ExtraTrees = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		params.Seed = int64(i)
		TrainLocal(tbl, rows, params)
	}
}

// BenchmarkPredict measures single-row prediction latency.
func BenchmarkPredict(b *testing.B) {
	tbl := benchTable(10000)
	tree := TrainLocal(tbl, dataset.AllRows(tbl.NumRows()), Defaults())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.PredictClass(tbl, i%tbl.NumRows(), 0)
	}
}

// BenchmarkTreeEncode measures the flat gob encoding subtree results use.
func BenchmarkTreeEncode(b *testing.B) {
	tbl := benchTable(10000)
	tree := TrainLocal(tbl, dataset.AllRows(tbl.NumRows()), Defaults())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := tree.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(data)))
	}
}

// BenchmarkTreeDecode measures the decode side.
func BenchmarkTreeDecode(b *testing.B) {
	tbl := benchTable(10000)
	tree := TrainLocal(tbl, dataset.AllRows(tbl.NumRows()), Defaults())
	data, err := tree.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var back Tree
		if err := back.UnmarshalBinary(data); err != nil {
			b.Fatal(err)
		}
	}
}
