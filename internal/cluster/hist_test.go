package cluster

import (
	"testing"

	"treeserver/internal/core"
	"treeserver/internal/dataset"
	"treeserver/internal/metrics"
	"treeserver/internal/obs"
	"treeserver/internal/synth"
	"treeserver/internal/task"
)

// histConfig forces every split through the column-task protocol so the hist
// path — not the exact subtree fallback — trains the tree.
func histConfig(maxBins, topK int) Config {
	cfg := testConfig()
	cfg.Policy = task.Policy{TauD: 1, TauDFS: 800, NPool: 4}
	cfg.SplitMode = SplitHist
	cfg.MaxBins = maxBins
	cfg.TopK = topK
	return cfg
}

// assertEquivalentTrees walks two trees in lockstep over the same row set and
// fails unless they are the same tree up to threshold placement: identical
// structure, split columns, induced row partitions, and leaf predictions. At
// depth ≥ 1 a node sees a subset of rows, so the saturated hist threshold may
// sit at a different point of the same value gap than the exact midpoint —
// the partitions are what the equivalence property guarantees.
func assertEquivalentTrees(t *testing.T, tbl *dataset.Table, got, want *core.Tree) {
	t.Helper()
	if got.NumNodes != want.NumNodes || got.MaxDepth != want.MaxDepth {
		t.Fatalf("shape differs: %d nodes depth %d vs %d nodes depth %d",
			got.NumNodes, got.MaxDepth, want.NumNodes, want.MaxDepth)
	}
	var walk func(g, w *core.Node, rows []int32)
	walk = func(g, w *core.Node, rows []int32) {
		if g.IsLeaf() != w.IsLeaf() || g.N != w.N {
			t.Fatalf("node %d: leaf=%v n=%d vs leaf=%v n=%d", w.ID, g.IsLeaf(), g.N, w.IsLeaf(), w.N)
		}
		if g.IsLeaf() {
			if g.Class != w.Class || g.Mean != w.Mean {
				t.Fatalf("leaf %d: prediction (%d, %v) vs (%d, %v)", w.ID, g.Class, g.Mean, w.Class, w.Mean)
			}
			return
		}
		if g.Cond.Col != w.Cond.Col || g.Cond.Kind != w.Cond.Kind {
			t.Fatalf("node %d: split %v vs %v", w.ID, g.Cond, w.Cond)
		}
		col := tbl.Cols[w.Cond.Col]
		gl, gr := g.Cond.Partition(col, rows)
		wl, wr := w.Cond.Partition(col, rows)
		if len(gl) != len(wl) || len(gr) != len(wr) {
			t.Fatalf("node %d: partition %d|%d vs %d|%d", w.ID, len(gl), len(gr), len(wl), len(wr))
		}
		for i := range gl {
			if gl[i] != wl[i] {
				t.Fatalf("node %d: left rows diverge at %d", w.ID, i)
			}
		}
		walk(g.Left, w.Left, wl)
		walk(g.Right, w.Right, wr)
	}
	walk(got.Root, want.Root, dataset.AllRows(tbl.NumRows()))
}

// TestHistSaturatedMatchesExactCluster is the cluster-level saturation
// property: with MaxBins large enough that every distinct numeric value gets
// its own bin, hist-mode training must grow the equivalent tree the exact
// protocol (and the serial oracle) produces — same structure, same row
// partitions, same predictions; classification bin counts are integers, so
// even histogram subtraction is bitwise exact.
func TestHistSaturatedMatchesExactCluster(t *testing.T) {
	cases := []synth.Spec{
		{Name: "numeric-clf", Rows: 2000, NumNumeric: 6, NumClasses: 3, ConceptDepth: 4, LabelNoise: 0.05, Seed: 71},
		{Name: "mixed-clf", Rows: 2000, NumNumeric: 3, NumCategorical: 3, CatLevels: 5, NumClasses: 2, ConceptDepth: 4, Seed: 72},
		{Name: "missing-clf", Rows: 1500, NumNumeric: 4, NumCategorical: 2, NumClasses: 2, MissingRate: 0.1, ConceptDepth: 4, Seed: 73},
	}
	for _, spec := range cases {
		t.Run(spec.Name, func(t *testing.T) {
			tbl := synth.GenerateTrain(spec)
			params := core.Defaults()
			params.MaxDepth = 7

			// 4*MaxBins sketch capacity comfortably exceeds the distinct
			// values of a 2000-row column: the summary is lossless and every
			// value is retained as a cut.
			c := newTestCluster(t, tbl, histConfig(4096, 2))
			defer c.Close()
			got, err := c.TrainOne(params)
			if err != nil {
				t.Fatalf("hist training: %v", err)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("invalid hist tree: %v", err)
			}
			want := core.TrainLocal(tbl, dataset.AllRows(tbl.NumRows()), params)
			assertEquivalentTrees(t, tbl, got, want)
		})
	}
}

// TestHistModeDeterministicAndAccurate trains the same spec twice in coarse
// (non-saturated) hist mode: the runs must be bit-identical — bins derive
// from order-insensitive merged sketches and votes are aggregated in sorted
// worker order — and the approximate tree's training accuracy must stay close
// to the exact tree's.
func TestHistModeDeterministicAndAccurate(t *testing.T) {
	spec := synth.Spec{Name: "hist-det", Rows: 4000, NumNumeric: 6, NumCategorical: 2,
		NumClasses: 2, ConceptDepth: 5, LabelNoise: 0.05, Seed: 74}
	tbl := synth.GenerateTrain(spec)
	params := core.Defaults()
	params.MaxDepth = 8

	train := func() *core.Tree {
		c := newTestCluster(t, tbl, histConfig(32, 2))
		defer c.Close()
		tr, err := c.TrainOne(params)
		if err != nil {
			t.Fatalf("hist training: %v", err)
		}
		return tr
	}
	first, second := train(), train()
	if !first.Equal(second) {
		t.Fatal("hist-mode training is not deterministic across runs")
	}

	exact := core.TrainLocal(tbl, dataset.AllRows(tbl.NumRows()), params)
	truth := make([]int32, tbl.NumRows())
	for r := range truth {
		truth[r] = tbl.Y().Cats[r]
	}
	histAcc := metrics.Accuracy(classifyAll(first, tbl), truth)
	exactAcc := metrics.Accuracy(classifyAll(exact, tbl), truth)
	if histAcc < exactAcc-0.02 {
		t.Fatalf("hist accuracy %.4f trails exact %.4f by more than 2%%", histAcc, exactAcc)
	}
}

// TestHistModeRegression exercises the regression kernel end to end (direct
// fills only — subtraction is classification-only) and its run-to-run
// determinism.
func TestHistModeRegression(t *testing.T) {
	spec := synth.Spec{Name: "hist-reg", Rows: 3000, NumNumeric: 5, NumCategorical: 2,
		NumClasses: 0, ConceptDepth: 4, LabelNoise: 0.2, Seed: 75}
	tbl := synth.GenerateTrain(spec)
	params := core.Defaults()
	params.MaxDepth = 6

	train := func() *core.Tree {
		c := newTestCluster(t, tbl, histConfig(64, 2))
		defer c.Close()
		tr, err := c.TrainOne(params)
		if err != nil {
			t.Fatalf("hist training: %v", err)
		}
		return tr
	}
	first, second := train(), train()
	if err := first.Validate(); err != nil {
		t.Fatalf("invalid hist regression tree: %v", err)
	}
	if !first.Equal(second) {
		t.Fatal("hist-mode regression training is not deterministic across runs")
	}
}

// TestHistModeSetTargetRounds drives the gradient-boosting cadence under hist
// mode: bins are proposed once, survive SetTarget, and the cached node
// histograms of the previous round must not leak into the next.
func TestHistModeSetTargetRounds(t *testing.T) {
	spec := synth.Spec{Name: "hist-gbt", Rows: 2500, NumNumeric: 5,
		NumClasses: 0, ConceptDepth: 4, LabelNoise: 0.1, Seed: 76}
	tbl := synth.GenerateTrain(spec)
	params := core.Defaults()
	params.MaxDepth = 4

	c := newTestCluster(t, tbl, histConfig(64, 2))
	defer c.Close()
	if _, err := c.TrainOne(params); err != nil {
		t.Fatalf("round 1: %v", err)
	}
	y2 := make([]float64, tbl.NumRows())
	for r := range y2 {
		y2[r] = tbl.Y().Floats[r] * 0.5
	}
	if err := c.SetTarget(y2); err != nil {
		t.Fatalf("SetTarget: %v", err)
	}
	tr, err := c.TrainOne(params)
	if err != nil {
		t.Fatalf("round 2: %v", err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("invalid round-2 tree: %v", err)
	}
}

// TestHistObsCounters asserts the hist telemetry shows up: votes received,
// histograms fetched, fills and (for a deep classification tree) subtraction
// hits.
func TestHistObsCounters(t *testing.T) {
	tbl := synth.GenerateTrain(synth.Spec{Name: "hist-obs", Rows: 3000, NumNumeric: 6,
		NumClasses: 2, ConceptDepth: 5, Seed: 77})
	reg := obs.NewRegistry()
	cfg := histConfig(32, 2)
	cfg.Observer = reg
	c := newTestCluster(t, tbl, cfg)
	defer c.Close()
	params := core.Defaults()
	params.MaxDepth = 8
	if _, err := c.TrainOne(params); err != nil {
		t.Fatalf("train: %v", err)
	}
	snap := reg.Snapshot()
	if snap.Master.BinRounds != 1 {
		t.Fatalf("BinRounds = %d, want 1", snap.Master.BinRounds)
	}
	if snap.Master.SketchMerges == 0 {
		t.Fatal("no sketch merges recorded")
	}
	if snap.Master.VoteMsgs == 0 || snap.Master.Votes == 0 {
		t.Fatalf("no votes recorded (msgs=%d cands=%d)", snap.Master.VoteMsgs, snap.Master.Votes)
	}
	if snap.Master.HistogramsFetched == 0 {
		t.Fatal("no histograms fetched")
	}
	if snap.Split.HistFills == 0 {
		t.Fatal("no histogram fills recorded")
	}
	if snap.Split.HistSubtractions == 0 {
		t.Fatal("no histogram subtractions recorded on a deep classification tree")
	}
}

// TestHistCacheScopedToJob is the cache's memory bound across jobs: every
// entry is keyed by a task ID of the job that filled it, so after N identical
// hist jobs the workers must hold no more cached histograms than one job
// leaves behind — not N jobs' worth waiting for FIFO eviction.
func TestHistCacheScopedToJob(t *testing.T) {
	tbl := synth.GenerateTrain(synth.Spec{Name: "hist-jobs", Rows: 1500, NumNumeric: 4,
		NumClasses: 2, ConceptDepth: 4, Seed: 78})
	c := newTestCluster(t, tbl, histConfig(32, 2))
	defer c.Close()
	params := core.Defaults()
	params.MaxDepth = 6
	population := func() int {
		n := 0
		for _, w := range c.Workers {
			w.histCache.mu.Lock()
			n += len(w.histCache.fifo)
			w.histCache.mu.Unlock()
		}
		return n
	}
	if _, err := c.TrainOne(params); err != nil {
		t.Fatalf("job 1: %v", err)
	}
	one := population()
	if one == 0 {
		t.Fatal("a hist job cached no node histograms")
	}
	for job := 2; job <= 5; job++ {
		if _, err := c.TrainOne(params); err != nil {
			t.Fatalf("job %d: %v", job, err)
		}
	}
	got := population()
	t.Logf("cached node histograms: %d after one job, %d after five", one, got)
	if got > one {
		t.Fatalf("%d cached histograms after 5 jobs, one job leaves %d", got, one)
	}
}
