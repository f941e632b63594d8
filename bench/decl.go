package bench

// Decl declares one metric: what BENCHMARK.json lists, what README.md
// explains and what every run must emit, in one place.
type Decl struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Source string  // the call or counter the number comes from
	Moves  string  // per-layer only: the end-to-end metric it should move, and where
}

// Workload families. A metric that has no meaning for a family (a cluster
// share on a serving workload) is emitted as 0: the layer did no work there.
const (
	FamilyTrain = "train"
	FamilyServe = "serve"
)

// WorkloadDecl names a workload and records why it exists.
type WorkloadDecl struct {
	Name   string
	Family string
	Why    string
}

// Workloads lists the seven workloads; names are normative.
var Workloads = []WorkloadDecl{
	{"rf_tall_mem", FamilyTrain, "exact forest on a tall table, in-memory fabric: big nodes, so the exact split kernel, delegate row split and row serving dominate; master and wire do little"},
	{"rf_hist_mem", FamilyTrain, "same table in histogram mode: same split/cluster layers used differently (binned fills, subtraction, votes); an exact-kernel gain must not show here"},
	{"rf_smalltask_tcp", FamilyTrain, "many small trees with tiny tau_D over loopback TCP: master scheduling and the per-message wire path dominate; kernels see tiny nodes"},
	{"gbt_tcp", FamilyTrain, "boosting over TCP: sequential rounds and a bulk SetTarget broadcast instead of many small frames; a small-message win that costs bulk transfer shows here"},
	{"serve_single", FamilyServe, "closed loop, batch 1, in-process handler: per-request fixed cost (mux, limiter, route, one-row decode, encode) dominates; traversal is negligible"},
	{"serve_batch", FamilyServe, "closed loop, batch 1024: per-row decode and traversal dominate and the working set leaves cache; fixed handler cost is amortised away"},
	{"serve_mixed_open", FamilyServe, "open loop over a real socket at three fixed rates with mixed batch sizes: queueing, limiter and tail latency; a gain bought with tail or sheds shows only here"},
}

// WorkloadByName finds a workload declaration.
func WorkloadByName(name string) (WorkloadDecl, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return WorkloadDecl{}, false
}

// EndToEnd are the metrics a user of the system would see. Every workload
// emits all of them from an untraced run; "work" is table cells (rows x
// features x trees or rounds) for training and scored rows for serving, an
// "operation" is a training job or a predict request. A metric sampled per
// job or per window is reported as the favourable quartile over them (see
// Result.setSteady); the median and both quartiles are in the result file.
var EndToEnd = []Decl{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Source: "median of 3 to 15 full set-ups: sampled synth data, SortIndex pre-warm, cluster or model+server bring-up, warm-up job or bodies"},
	{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.25,
		Source: "third quartile over jobs (windows) of work done / wall; serve_mixed_open: rows answered / wall at the middle rate"},
	{Name: "cpu_ns_per_work", Unit: "ns", Better: "lower", Bound: 0.25,
		Source: "first quartile over jobs (windows) of getrusage(RUSAGE_SELF) user+system / work done; serving includes the in-process load generator"},
	{Name: "typical_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Source: "training: job wall; serving: per-window p50 of request latency (closed loop: service time; open loop: from due time, middle rate); first quartile over jobs (windows)"},
	{Name: "tail_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Source: "serving: per-window p99 (>= 10 samples beyond it), first quartile over windows (serve_batch: p99 of the pooled run); training: the median job wall, so few jobs supporting no percentile beyond it"},
	{Name: "holdout_acc", Unit: "ratio", Better: "higher", Bound: 0.05,
		Source: "accuracy on the held-out rows: of the trained forest / boosted model, or of the classes the server returned for bodies cut from those rows"},
	{Name: "goodput_share", Unit: "ratio", Better: "higher", Bound: 0.02,
		Source: "operations that succeeded and were correct / attempted (1 - fail_ratio); serve_mixed_open also requires <= 20 ms from due time, over all three rates"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25,
		Source: "getrusage(RUSAGE_SELF).Maxrss of the workload's own process"},
}

const (
	movesSetup = "setup_s, peak_rss_mb on rf_tall_mem, rf_hist_mem, serve_*"
	movesExact = "work_per_s, cpu_ns_per_work on rf_tall_mem, gbt_tcp; flat on rf_hist_mem, serve_*"
	movesHist  = "work_per_s on rf_hist_mem only"
	movesSmall = "work_per_s on rf_smalltask_tcp"
	movesWire  = "work_per_s on rf_smalltask_tcp (small frames) and gbt_tcp (bulk); flat on *_mem for TCP-only changes"
	movesGBT   = "work_per_s on gbt_tcp"
	movesFixed = "work_per_s, typical_ms on serve_single"
	movesRows  = "work_per_s, cpu_ns_per_work on serve_batch"
	movesTail  = "tail_ms, goodput_share on serve_mixed_open"
	movesAll   = "budget of the traced run; no end-to-end metric (those are untraced)"
)

// PerLayer are the traced run's metrics, named <package>.<name>. Every
// workload emits all of them; a layer a workload does not exercise reads 0.
var PerLayer = []Decl{
	// set-up layers
	{Name: "synth.generate_s", Unit: "s", Better: "lower", Source: "synth.Generate", Moves: movesSetup},
	{Name: "dataset.sortindex_build_s", Unit: "s", Better: "lower", Source: "Column.SortIndex on every numeric column", Moves: movesSetup},
	{Name: "dataset.table_mb", Unit: "MB", Better: "lower", Source: "sum of Column.ByteSize + SortIndexBytes", Moves: "peak_rss_mb"},
	{Name: "split.bin_column_ns_per_row", Unit: "ns", Better: "lower", Source: "split.BinColumn", Moves: "setup_s on rf_hist_mem"},
	{Name: "sketch.propose_bins_ns_per_row", Unit: "ns", Better: "lower", Source: "split.ProposeBins (sketch.AddBulk inside)", Moves: "setup_s on rf_hist_mem"},
	{Name: "model.load_ms", Unit: "ms", Better: "lower", Source: "model.SaveForest + model.Load", Moves: "setup_s on serve_*"},
	{Name: "infer.compile_ms", Unit: "ms", Better: "lower", Source: "infer.Compile", Moves: "setup_s on serve_*"},
	{Name: "registry.load_ms", Unit: "ms", Better: "lower", Source: "registry.Load (compiles and activates)", Moves: "setup_s on serve_*"},

	// split kernels, direct calls on the workload's own columns
	{Name: "split.exact_ns_per_row", Unit: "ns", Better: "lower", Source: "split.FindBest, root node, dense RowSet path, pooled Scratch", Moves: movesExact},
	{Name: "split.exact_sparse_ns_per_row", Unit: "ns", Better: "lower", Source: "split.FindBest on a tau_D-sized row subset (sort+sweep fallback)", Moves: movesExact},
	{Name: "split.cat_ns_per_row", Unit: "ns", Better: "lower", Source: "split.FindBest on a categorical column", Moves: movesExact},
	{Name: "split.allocs_per_call", Unit: "count", Better: "lower", Source: "testing.AllocsPerRun over the dense numeric FindBest", Moves: movesExact},
	{Name: "split.hist_fill_ns_per_row", Unit: "ns", Better: "lower", Source: "Hist.Fill", Moves: movesHist},
	{Name: "split.hist_best_ns_per_bin", Unit: "ns", Better: "lower", Source: "split.BestFromHist", Moves: movesHist},
	{Name: "split.hist_sub_ns_per_bin", Unit: "ns", Better: "lower", Source: "Hist.Sub", Moves: movesHist},
	{Name: "split.fastpath_ratio", Unit: "ratio", Better: "higher", Source: "obs SplitSnapshot: FastPath / (FastPath + Fallback)", Moves: movesExact},
	{Name: "split.hist_sub_ratio", Unit: "ratio", Better: "higher", Source: "obs SplitSnapshot: HistSubtractions / (HistFills + HistSubtractions)", Moves: movesHist},

	// core, loadbal
	{Name: "core.subtree_us", Unit: "us", Better: "lower", Source: "core.TrainLocal on a tau_D-row bag with the workload's params", Moves: "work_per_s on rf_smalltask_tcp and the lower levels of rf_tall_mem"},
	{Name: "loadbal.assign_columns_ns", Unit: "ns", Better: "lower", Source: "loadbal.AssignColumns with the workload's placement and columns", Moves: movesSmall},
	{Name: "loadbal.assign_subtree_ns", Unit: "ns", Better: "lower", Source: "loadbal.AssignSubtree", Moves: movesSmall},

	// transport, private endpoint pairs, specimens captured by the decorator
	{Name: "transport.encode_us_small", Unit: "us", Better: "lower", Source: "transport.EncodePayload of a captured ColumnPlanMsg", Moves: movesWire},
	{Name: "transport.decode_us_small", Unit: "us", Better: "lower", Source: "transport.DecodePayload of the same frame", Moves: movesWire},
	{Name: "transport.encode_us_bulk", Unit: "us", Better: "lower", Source: "transport.EncodePayload of the largest captured message", Moves: movesWire},
	{Name: "transport.decode_us_bulk", Unit: "us", Better: "lower", Source: "transport.DecodePayload of the same frame", Moves: movesWire},
	{Name: "transport.mem_send_us", Unit: "us", Better: "lower", Source: "MemEndpoint.Send + Recv of the small specimen", Moves: "work_per_s on rf_*_mem"},
	{Name: "transport.tcp_send_us", Unit: "us", Better: "lower", Source: "TCPEndpoint.Send + Recv of the small specimen over loopback", Moves: movesWire},
	{Name: "transport.tcp_send_allocs", Unit: "count", Better: "lower", Source: "testing.AllocsPerRun over the same round", Moves: movesWire},
	{Name: "transport.tcp_bulk_mb_per_s", Unit: "MB/s", Better: "higher", Source: "TCPEndpoint.Send + Recv of the bulk specimen", Moves: "work_per_s on gbt_tcp"},

	// cluster, from the spanEndpoint decorator; shares are of job wall
	{Name: "cluster.master.send_share", Unit: "ratio", Better: "lower", Source: "sum of master Send spans / job wall", Moves: movesSmall},
	{Name: "cluster.master.handle_share", Unit: "ratio", Better: "lower", Source: "self time of master handle spans (Recv return to next Recv call, minus its own sends) / job wall", Moves: movesSmall},
	{Name: "cluster.master.recv_wait_share", Unit: "ratio", Better: "higher", Source: "time the master's receive thread blocks in Recv / job wall", Moves: movesSmall},
	{Name: "cluster.worker.send_share", Unit: "ratio", Better: "lower", Source: "worker Send spans / (job wall x workers)", Moves: movesWire},
	{Name: "cluster.worker.handle_share", Unit: "ratio", Better: "lower", Source: "self time of worker handle spans / (job wall x workers)", Moves: "work_per_s on rf_tall_mem (row serving, delegate split)"},
	{Name: "cluster.worker.busy_share", Unit: "ratio", Better: "higher", Source: "Worker.BusySeconds delta / (job wall x workers x compers)", Moves: "work_per_s on rf_tall_mem"},
	{Name: "cluster.worker.busy_skew", Unit: "ratio", Better: "lower", Source: "max / mean of per-worker BusySeconds delta", Moves: "work_per_s on rf_tall_mem"},
	{Name: "cluster.send_p99_us", Unit: "us", Better: "lower", Source: "p99 of every endpoint's Send span", Moves: movesWire},
	{Name: "cluster.master.msgs_per_job", Unit: "count", Better: "lower", Source: "Master.TransportStats MsgsSent+MsgsReceived delta", Moves: movesSmall},
	{Name: "cluster.master.bytes_per_job", Unit: "B", Better: "lower", Source: "Master.TransportStats BytesSent delta", Moves: "work_per_s on gbt_tcp"},
	{Name: "cluster.worker.bytes_per_job", Unit: "B", Better: "lower", Source: "sum of Worker.TransportStats BytesSent delta", Moves: "work_per_s on rf_tall_mem, gbt_tcp"},
	{Name: "cluster.msgs_per_split", Unit: "count", Better: "lower", Source: "all endpoints' MsgsSent / internal nodes of the returned trees", Moves: movesSmall},
	{Name: "cluster.bytes_per_split", Unit: "B", Better: "lower", Source: "all endpoints' BytesSent / internal nodes", Moves: movesWire},
	{Name: "cluster.fabric_gap_ratio", Unit: "ratio", Better: "lower", Source: "same specs, untraced: TCP job wall / in-memory job wall", Moves: movesWire},
	{Name: "cluster.speedup_vs_serial", Unit: "ratio", Better: "higher", Source: "single-thread core.TrainLocal (gbt.LocalEngine) wall / median job wall", Moves: "work_per_s on every training workload"},
	{Name: "cluster.tasks_planned_per_job", Unit: "count", Better: "lower", Source: "obs MasterSnapshot.TasksPlanned", Moves: movesSmall},
	{Name: "cluster.rows_planned_per_job", Unit: "count", Better: "lower", Source: "obs MasterSnapshot.RowsPlanned", Moves: movesSmall},
	{Name: "cluster.plan_to_decide_ms", Unit: "ms", Better: "lower", Source: "obs PlanToDecideNs / PlanToDecideSpans", Moves: "work_per_s on rf_tall_mem, rf_smalltask_tcp"},
	{Name: "cluster.confirm_to_split_ms", Unit: "ms", Better: "lower", Source: "obs ConfirmToSplitNs / ConfirmToSplitSpans", Moves: "work_per_s on rf_tall_mem"},
	{Name: "cluster.bplan_highwater", Unit: "count", Better: "lower", Source: "obs DequeHighWater", Moves: "peak_rss_mb on rf_smalltask_tcp"},
	{Name: "cluster.pool_highwater", Unit: "count", Better: "higher", Source: "obs PoolHighWater", Moves: movesSmall},
	{Name: "cluster.row_serves_per_job", Unit: "count", Better: "lower", Source: "obs WorkerSnapshot.RowServes", Moves: "work_per_s on rf_tall_mem"},
	{Name: "cluster.rowset_hit_ratio", Unit: "ratio", Better: "higher", Source: "obs RowSetHits / (RowSetHits + RowSetMisses)", Moves: "cpu_ns_per_work on rf_tall_mem"},
	{Name: "cluster.task_retry_ratio", Unit: "ratio", Better: "lower", Source: "obs TasksRetried / TasksPlanned", Moves: "goodput_share on every training workload"},
	{Name: "cluster.hist_fetched_per_split", Unit: "count", Better: "lower", Source: "obs HistogramsFetched / internal nodes", Moves: movesHist},
	{Name: "cluster.worker.comp_s_per_job", Unit: "s", Better: "lower", Source: "obs sum of WorkerSnapshot.CompNs", Moves: "cpu_ns_per_work on rf_tall_mem, rf_hist_mem"},

	// gbt, from the spanEngine decorator
	{Name: "gbt.settarget_share", Unit: "ratio", Better: "lower", Source: "Engine.SetTarget spans / job wall", Moves: movesGBT},
	{Name: "gbt.train_call_share", Unit: "ratio", Better: "lower", Source: "Engine.Train spans / job wall", Moves: movesGBT},
	{Name: "gbt.driver_share", Unit: "ratio", Better: "lower", Source: "remainder of gbt.Train: gradient and margin update", Moves: movesGBT},
	{Name: "gbt.round_ms", Unit: "ms", Better: "lower", Source: "job wall / rounds", Moves: movesGBT},

	// infer, registry, serve: direct calls on the workload's bodies, one goroutine
	{Name: "infer.decode_ns_per_row", Unit: "ns", Better: "lower", Source: "Model.DecodeRequest on the workload's bodies", Moves: movesRows},
	{Name: "infer.predict_ns_per_row", Unit: "ns", Better: "lower", Source: "Model.Predict on the decoded blocks", Moves: movesRows},
	{Name: "infer.batch_cliff_ratio", Unit: "ratio", Better: "lower", Source: "Predict ns/row at batch 1024 / at batch 64", Moves: movesRows},
	{Name: "infer.allocs_per_request", Unit: "count", Better: "lower", Source: "testing.AllocsPerRun over decode + predict", Moves: "peak_rss_mb, tail_ms on serve_*"},
	{Name: "registry.route_ns", Unit: "ns", Better: "lower", Source: "Registry.Route", Moves: movesFixed},
	{Name: "serve.handler_ns_per_req", Unit: "ns", Better: "lower", Source: "Server.ServeHTTP with a discard writer", Moves: movesFixed},
	{Name: "serve.decode_share", Unit: "ratio", Better: "lower", Source: "decode time / handler time, same bodies", Moves: movesRows},
	{Name: "serve.predict_share", Unit: "ratio", Better: "lower", Source: "predict time / handler time, same bodies", Moves: movesRows},
	{Name: "serve.self_share", Unit: "ratio", Better: "lower", Source: "1 - decode_share - predict_share: routing, limiter, encode, write", Moves: movesFixed},
	{Name: "serve.allocs_per_req", Unit: "count", Better: "lower", Source: "testing.AllocsPerRun over ServeHTTP", Moves: movesFixed},
	{Name: "serve.resilience_overhead_ratio", Unit: "ratio", Better: "lower", Source: "hardened / plain server, interleaved medians at batch 64", Moves: movesFixed},
	{Name: "serve.http_overhead_us", Unit: "us", Better: "lower", Source: "loopback socket round trip - in-process handler, batch 1", Moves: "typical_ms on serve_mixed_open"},
	{Name: "serve.shed_ratio", Unit: "ratio", Better: "lower", Source: "HTTP 429 / requests sent in the traced load", Moves: movesTail},
	{Name: "serve.gen_lateness_p99_ms", Unit: "ms", Better: "lower", Source: "open loop: send time - due time, p99 at the middle rate", Moves: "trust in tail_ms on serve_mixed_open"},
	{Name: "serve.p99_ms_rate_lo", Unit: "ms", Better: "lower", Source: "open loop p99 from due time at the low rate", Moves: movesTail},
	{Name: "serve.p99_ms_rate_mid", Unit: "ms", Better: "lower", Source: "same at the middle rate", Moves: movesTail},
	{Name: "serve.p99_ms_rate_hi", Unit: "ms", Better: "lower", Source: "same at the high rate", Moves: movesTail},

	// the harness itself
	{Name: "obs.trace_overhead_ratio", Unit: "ratio", Better: "lower", Source: "traced / untraced: job wall (training) or seconds per row (serving), same process", Moves: movesAll},
	{Name: "bench.unattributed_share", Unit: "ratio", Better: "lower", Source: "share of job (window) wall no handle, send or task span covers", Moves: movesAll},
}
