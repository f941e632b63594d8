package bench

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"treeserver/internal/core"
	"treeserver/internal/dataset"
	"treeserver/internal/impurity"
	"treeserver/internal/loadbal"
	"treeserver/internal/split"
	"treeserver/internal/transport"
)

// perCall times f by running it in batches sized to last about a millisecond
// (so the clock reads cost nothing even for a 30 ns call), for the whole
// budget, and returns the median batch mean in nanoseconds per call.
func perCall(budget time.Duration, f func()) float64 {
	f() // warm pools and lazily built indexes outside the timing
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if d := time.Since(t0); d >= time.Millisecond || n >= 1<<20 {
			break
		}
		n *= 4
	}
	var means []float64
	deadline := time.Now().Add(budget)
	for len(means) < 3 || time.Now().Before(deadline) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		means = append(means, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return Median(means)
}

// trainLayers measures the layers under a training job by calling their
// public functions directly, on the workload's own columns and on messages
// the span decorator captured from its wire.
func trainLayers(env *trainEnv, budget time.Duration, res *Result) error {
	s := env.spec
	kernels := 16
	if s.fleet.hist {
		kernels += 5
	}
	slice := budget / time.Duration(kernels)

	tbl := env.train
	n := tbl.NumRows()
	y, measure, classes := tbl.Y(), impurity.Gini, tbl.NumClasses()
	if s.rounds > 0 {
		// Boosting rounds fit numeric residuals with the regression kernel:
		// give the direct calls the same kind of target (first-round residuals).
		vals := make([]float64, n)
		for r := range vals {
			vals[r] = float64(tbl.Y().Cats[r]) - 0.5
		}
		y, measure, classes = dataset.NewNumeric("Y", vals), impurity.Variance, 0
		cols := append([]*dataset.Column(nil), tbl.Cols...)
		cols[tbl.Target] = y
		tbl = dataset.MustNewTable(cols, tbl.Target)
	}
	numIdx, catIdx := -1, -1
	for _, c := range tbl.FeatureIndexes() {
		if tbl.Cols[c].Kind == dataset.Numeric && numIdx < 0 {
			numIdx = c
		}
		if tbl.Cols[c].Kind == dataset.Categorical && catIdx < 0 {
			catIdx = c
		}
	}
	all := dataset.AllRows(n)
	rng := rand.New(rand.NewSource(1))
	sub := make([]int32, min(s.fleet.policy.TauD, n))
	for i := range sub {
		sub[i] = int32(rng.Intn(n))
	}
	slices.Sort(sub)
	scratch := split.GetScratch()
	defer split.PutScratch(scratch)

	// split: the exact kernels.
	dense := split.Request{Col: tbl.Cols[numIdx], ColIdx: numIdx, Y: y, Rows: all, Measure: measure,
		NumClasses: classes, RowSet: dataset.RowSetOf(all, n), Scratch: scratch}
	res.set("split.exact_ns_per_row", perCall(slice, func() { split.FindBest(dense) })/float64(n))
	res.set("split.allocs_per_call", testing.AllocsPerRun(3, func() { split.FindBest(dense) }))
	sparse := dense
	sparse.Rows, sparse.RowSet = sub, nil
	res.set("split.exact_sparse_ns_per_row", perCall(slice, func() { split.FindBest(sparse) })/float64(len(sub)))
	cat := dense
	cat.Col, cat.ColIdx, cat.RowSet = tbl.Cols[catIdx], catIdx, nil
	res.set("split.cat_ns_per_row", perCall(slice, func() { split.FindBest(cat) })/float64(n))

	// split/sketch: the histogram kernels, where the workload uses them.
	if s.fleet.hist {
		col := tbl.Cols[numIdx]
		var bins split.Bins
		res.set("sketch.propose_bins_ns_per_row",
			perCall(slice, func() { bins = split.ProposeBins(numIdx, col, s.fleet.maxBins) })/float64(n))
		var bc *split.BinnedColumn
		res.set("split.bin_column_ns_per_row", perCall(slice, func() { bc = split.BinColumn(col, bins) })/float64(n))
		parent, left, right := split.GetHist(bins.NumBins, classes), split.GetHist(bins.NumBins, classes), split.GetHist(bins.NumBins, classes)
		defer split.PutHist(parent)
		defer split.PutHist(left)
		defer split.PutHist(right)
		res.set("split.hist_fill_ns_per_row", perCall(slice, func() {
			parent.Reset(bins.NumBins, classes)
			parent.Fill(bc, y, all)
		})/float64(n))
		left.Fill(bc, y, all[:n/3])
		res.set("split.hist_sub_ns_per_bin", perCall(slice, func() { right.Sub(parent, left) })/float64(bins.NumBins))
		res.set("split.hist_best_ns_per_bin", perCall(slice, func() {
			split.BestFromHist(bins, parent, measure, 0, scratch)
		})/float64(bins.NumBins))
	}

	// core: one subtree-task's worth of serial training.
	params := core.Defaults()
	params.MaxDepth = s.depth
	res.set("core.subtree_us", perCall(slice, func() { core.TrainLocal(tbl, sub, params) })/1e3)

	// loadbal: one placement decision each way (assign + revert, as the master
	// does for every task).
	features := tbl.FeatureIndexes()
	placement := loadbal.RoundRobin(features, numWorkers, numReplicas)
	matrix := loadbal.NewMatrix(numWorkers)
	res.set("loadbal.assign_columns_ns", perCall(slice, func() {
		a := loadbal.AssignColumns(matrix, placement, features, n/4, 0, loadbal.Eligibility{})
		matrix.Revert(a.Charges)
	}))
	res.set("loadbal.assign_subtree_ns", perCall(slice, func() {
		a := loadbal.AssignSubtree(matrix, placement, features, len(sub), 0, loadbal.Eligibility{})
		matrix.Revert(a.Charges)
	}))

	return transportLayers(env, slice, res)
}

// transportLayers measures codec and fabric cost on private endpoint pairs
// with specimens of the workload's own traffic.
func transportLayers(env *trainEnv, slice time.Duration, res *Result) error {
	ctl := env.fl.ctl
	ctl.mu.Lock()
	small, bulk := ctl.small, ctl.bulk
	ctl.mu.Unlock()
	if small == nil {
		return fmt.Errorf("no ColumnPlanMsg crossed the traced fleet's wire")
	}
	if bulk == nil {
		bulk = small
	}
	for _, sp := range []struct {
		tag     string
		payload any
	}{{"small", small}, {"bulk", bulk}} {
		frame, err := transport.EncodePayload(sp.payload)
		if err != nil {
			return fmt.Errorf("encode %s specimen: %w", sp.tag, err)
		}
		res.set("transport.encode_us_"+sp.tag, perCall(slice, func() { _, _ = transport.EncodePayload(sp.payload) })/1e3)
		res.set("transport.decode_us_"+sp.tag, perCall(slice, func() { _, _ = transport.DecodePayload(frame) })/1e3)
	}

	net := transport.NewMemNetwork()
	defer net.Close()
	ma, mb := net.Endpoint("a"), net.Endpoint("b")
	res.set("transport.mem_send_us", perCall(slice, func() {
		_ = ma.Send("b", small)
		mb.Recv()
	})/1e3)

	ta, err := transport.ListenTCP("a", "127.0.0.1:0", nil)
	if err != nil {
		return err
	}
	defer ta.Close()
	tb, err := transport.ListenTCP("b", "127.0.0.1:0", nil)
	if err != nil {
		return err
	}
	defer tb.Close()
	ta.AddPeer("b", tb.Addr())
	var sendErr error
	round := func(payload any) func() {
		return func() {
			if err := ta.Send("b", payload); err != nil {
				sendErr = err
				return
			}
			tb.Recv()
		}
	}
	res.set("transport.tcp_send_us", perCall(slice, round(small))/1e3)
	res.set("transport.tcp_send_allocs", testing.AllocsPerRun(50, round(small)))
	bulkFrame, _ := transport.EncodePayload(bulk)
	ns := perCall(slice, round(bulk))
	res.set("transport.tcp_bulk_mb_per_s", float64(len(bulkFrame))/(1<<20)/(ns/1e9))
	if sendErr != nil {
		return fmt.Errorf("tcp specimen send: %w", sendErr)
	}
	return nil
}
