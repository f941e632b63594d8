package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"treeserver/internal/cluster"
	"treeserver/internal/core"
	"treeserver/internal/dataset"
	"treeserver/internal/forest"
	"treeserver/internal/gbt"
	"treeserver/internal/obs"
	"treeserver/internal/synth"
	"treeserver/internal/task"
	"treeserver/internal/transport"
)

// trainSpec sizes one training workload. The sizes were probed on a 2-core
// host so that one job lasts about a second: a run of run_seconds then holds
// at least five jobs and the whole suite fits the driver's time cap.
type trainSpec struct {
	rows        int     // generated rows
	heldOut     float64 // share of them kept from training and scored for holdout_acc
	numeric     int
	categorical int
	trees       int // forest size; 0 for boosting
	depth       int
	rounds      int // boosting rounds; 0 for a forest
	fleet       fleetConfig
}

const (
	defaultHeldOut = 0.2 // unless a workload needs more held-out rows for a steady accuracy
	minJobs        = 5
	learningRate   = 0.6
	histBins       = 64
	histTopK       = 2
	conceptDepth   = 5
	conceptSeed    = 2022 // every table is sampled from one concept; see sampleTables
	labelNoise     = 0.3
	missingRate    = 0.01
	catLevels      = 8
	forestSeedOff  = 1000 // forest randomness = workload seed + this, so data and bags differ
)

func trainSpecFor(name string, tiny bool) trainSpec {
	var s trainSpec
	switch name {
	case "rf_tall_mem", "rf_hist_mem":
		s = trainSpec{rows: 125000, heldOut: defaultHeldOut, numeric: 6, categorical: 2, trees: 4, depth: 10,
			fleet: fleetConfig{policy: task.DefaultPolicy()}}
		if name == "rf_hist_mem" {
			s.fleet.hist, s.fleet.maxBins, s.fleet.topK = true, histBins, histTopK
		}
	case "rf_smalltask_tcp":
		// Half the rows are held out: a fifth of so small a table would score
		// accuracy on 1 000 rows, which alone is two percent of sampling noise.
		s = trainSpec{rows: 8000, heldOut: 0.5, numeric: 9, categorical: 3, trees: 16, depth: 12,
			fleet: fleetConfig{policy: task.Policy{TauD: 64, TauDFS: 512, NPool: 8}, tcp: true}}
	case "gbt_tcp":
		// Few, large tasks: five rounds on a table twice as tall rather than
		// ten on the issue's, and the default tau_D, so a job's time is in bulk
		// SetTarget frames and regression kernels, not in message hops (whose
		// latency on a host without high-resolution timers swings by a
		// millisecond each and made this workload's wall time bimodal).
		s = trainSpec{rows: 100000, heldOut: defaultHeldOut, numeric: 12, categorical: 4, rounds: 5, depth: 4,
			fleet: fleetConfig{policy: task.DefaultPolicy(), tcp: true}}
	}
	if tiny {
		s.rows /= 25
		if s.rows < 1500 {
			s.rows = 1500
		}
		if s.trees > 2 {
			s.trees = 2
		}
		if s.rounds > 2 {
			s.rounds = 2
		}
		if s.fleet.policy.TauD > 200 {
			// Keep column-tasks in play on the shrunken table.
			s.fleet.policy = task.Policy{TauD: 200, TauDFS: 800, NPool: s.fleet.policy.NPool}
		}
	}
	return s
}

func (s trainSpec) params() map[string]any {
	return map[string]any{
		"rows": s.rows, "held_out": s.heldOut, "numeric": s.numeric, "categorical": s.categorical,
		"trees": s.trees, "max_depth": s.depth, "rounds": s.rounds, "learning_rate": learningRate,
		"tau_d": s.fleet.policy.TauD, "tau_dfs": s.fleet.policy.TauDFS, "n_pool": s.fleet.policy.NPool,
		"hist": s.fleet.hist, "max_bins": s.fleet.maxBins, "top_k": s.fleet.topK, "tcp": s.fleet.tcp,
		"workers": numWorkers, "compers": numCompers, "replicas": numReplicas,
		"concept_depth": conceptDepth, "label_noise": labelNoise, "missing_rate": missingRate,
	}
}

// units is the work one job does, in table cells.
func (s trainSpec) units(trainRows int) float64 {
	n := s.trees
	if s.rounds > 0 {
		n = s.rounds
	}
	return float64(trainRows) * float64(s.numeric+s.categorical) * float64(n)
}

// trainEnv is a set-up training workload: data, a warmed fleet and the job.
type trainEnv struct {
	spec        trainSpec
	train, test *dataset.Table
	fl          *fleet
	specs       []cluster.TreeSpec // forest jobs
	gbtCfg      gbt.Config         // boosting jobs
	genS, sortS float64
}

func (e *trainEnv) close() {
	if e != nil && e.fl != nil {
		e.fl.close()
	}
}

// sampleTables draws a workload's training and held-out tables from the seed.
// The rows are a seed-chosen half of a pool twice the size that synth
// generates under one fixed hidden concept: different seeds give different
// tables (and bags, bodies and schedules downstream) of the same problem. Were
// the concept itself redrawn per seed, its class balance and learnability
// would decide how big trees grow and how accurate they get, and job time and
// holdout_acc would swing by tens of percent from seed to seed for reasons
// that have nothing to do with the system. Thirty percent label noise keeps
// nodes impure, so trees grow to their depth limit on every sample.
func sampleTables(spec synth.Spec, seed int64, heldOut float64) (train, test *dataset.Table) {
	rows := spec.Rows
	spec.Name, spec.Rows, spec.Seed = "tsbench", 2*rows, conceptSeed
	spec.CatLevels, spec.ConceptDepth = catLevels, conceptDepth
	spec.LabelNoise, spec.MissingRate = labelNoise, missingRate
	pool := synth.GenerateTrain(spec)
	pick := rand.New(rand.NewSource(seed)).Perm(pool.NumRows())[:rows]
	picked := make([]int32, rows)
	for i, r := range pick {
		picked[i] = int32(r)
	}
	nTest := int(float64(rows) * heldOut)
	return pool.Gather(picked[nTest:]), pool.Gather(picked[:nTest])
}

// setUpTrain does everything a job needs before it can be timed: sample
// the table from the seed, build every numeric column's sort index (which
// the first job would otherwise pay for), bring the cluster up and run a
// one-tree warm-up job so pools, codecs and (hist) the bin round are paid.
func setUpTrain(s trainSpec, seed int64, traced bool) (*trainEnv, error) {
	e := &trainEnv{spec: s}
	t0 := time.Now()
	e.train, e.test = sampleTables(synth.Spec{
		Rows: s.rows, NumNumeric: s.numeric, NumCategorical: s.categorical, NumClasses: 2,
	}, seed, s.heldOut)
	e.genS = time.Since(t0).Seconds()
	t0 = time.Now()
	for _, c := range e.train.Cols {
		if c.Kind == dataset.Numeric {
			c.SortIndex()
		}
	}
	e.sortS = time.Since(t0).Seconds()

	params := core.Defaults()
	params.MaxDepth = s.depth
	if s.rounds > 0 {
		e.gbtCfg = gbt.Config{Rounds: s.rounds, MaxDepth: s.depth, LearningRate: learningRate}
	} else {
		e.specs = forest.Specs(cluster.SchemaOf(e.train), forest.Config{
			Trees: s.trees, Params: params, ColFrac: -1, Bootstrap: true, Seed: seed + forestSeedOff,
		})
	}
	fl, err := newFleet(e.train, s.fleet, traced)
	if err != nil {
		return nil, err
	}
	e.fl = fl
	if err := e.warm(fl); err != nil {
		fl.close()
		return nil, err
	}
	return e, nil
}

// warm runs the one-tree (one-round) warm-up job on a fleet.
func (e *trainEnv) warm(fl *fleet) error {
	if e.spec.rounds > 0 {
		cfg := e.gbtCfg
		cfg.Rounds = 1
		_, err := gbt.Train(fl.master, e.train, cfg)
		return err
	}
	_, err := fl.master.Train(e.specs[:1])
	return err
}

// jobOut is what one job produced.
type jobOut struct {
	trees []*core.Tree
	model *gbt.Model // boosting only
	wall  time.Duration
}

// job runs the workload's job once on a fleet, under a root span if traced.
func (e *trainEnv) job(fl *fleet) (jobOut, error) {
	if fl.ctl != nil {
		fl.ctl.beginJob()
		defer fl.ctl.endJob()
	}
	var out jobOut
	var err error
	t0 := time.Now()
	if e.spec.rounds > 0 {
		out.model, err = gbt.Train(fl.engine(), e.train, e.gbtCfg)
		if err == nil {
			out.trees = out.model.Trees
		}
	} else {
		out.trees, err = fl.master.Train(e.specs)
	}
	out.wall = time.Since(t0)
	return out, err
}

// oracle trains the same job without the cluster: serial core.TrainLocal per
// tree, or gbt.LocalEngine. parallelism > 1 trains independent trees side by
// side (each still serially) to shorten the untraced run's check.
func (e *trainEnv) oracle(parallelism int) ([]*core.Tree, error) {
	if e.spec.rounds > 0 {
		m, err := gbt.Train(&gbt.LocalEngine{Table: e.train}, e.train, e.gbtCfg)
		if err != nil {
			return nil, err
		}
		return m.Trees, nil
	}
	return (&forest.Local{Table: e.train, Parallelism: parallelism}).Train(e.specs)
}

// sameTrees reports the first difference between two jobs' outputs, "" if none.
func sameTrees(got, want []*core.Tree) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d trees, want %d", len(got), len(want))
	}
	for i := range got {
		if d := core.DiffTrees(got[i], want[i]); d != "" {
			return fmt.Sprintf("tree %d: %s", i, d)
		}
	}
	return ""
}

// accuracy scores a job's output on the held-out rows.
func (e *trainEnv) accuracy(out jobOut) float64 {
	if out.model != nil {
		return out.model.Accuracy(e.test)
	}
	f := &forest.Forest{Trees: out.trees, Task: e.train.Task(), NumClasses: e.train.NumClasses()}
	return f.Accuracy(e.test)
}

func splitsOf(trees []*core.Tree) int {
	n := 0
	for _, t := range trees {
		n += t.NumNodes - t.Leaves()
	}
	return n
}

func runTrain(name string, o Options, res *Result) ([]Span, error) {
	s := trainSpecFor(name, o.Tiny)
	res.Params = s.params()
	if o.Trace {
		return runTrainTraced(s, o, res)
	}
	env, setup, err := medianSetup(o.Tiny,
		func() (*trainEnv, error) { return setUpTrain(s, o.Seed, false) },
		(*trainEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()

	var walls, cpus []float64
	var first jobOut
	differ := 0
	for t0 := time.Now(); len(walls) < minJobs || time.Since(t0).Seconds() < o.Seconds; {
		u0 := readUsage()
		out, err := env.job(env.fl)
		if err != nil {
			return nil, err
		}
		cpus = append(cpus, float64((readUsage().cpu - u0.cpu).Nanoseconds()))
		walls = append(walls, out.wall.Seconds())
		if len(walls) == 1 {
			first = out
		} else if d := sameTrees(out.trees, first.trees); d != "" {
			// Exact and hist training are both deterministic: any repeat that
			// differs from the first job is a wrong answer.
			differ++
			res.note("job %d differs from job 1: %s", len(walls), d)
		}
	}

	res.Attempted, res.Failed = len(walls), differ
	if !s.fleet.hist {
		want, err := env.oracle(runtime.NumCPU())
		if err != nil {
			return nil, err
		}
		if d := sameTrees(first.trees, want); d != "" {
			res.Failed = len(walls) // every repeat equal to a wrong job is wrong too
			res.note("job 1 differs from the serial oracle: %s", d)
		}
	}

	units := s.units(env.train.NumRows())
	rates := make([]float64, len(walls))
	for i, w := range walls {
		rates[i] = units / w
		cpus[i] /= units
		walls[i] *= 1e3
	}
	res.setMedian("setup_s", setup) // the median is what the driver contract asks of set-up
	res.setSteady("work_per_s", Summarize(rates))
	res.setSteady("cpu_ns_per_work", Summarize(cpus))
	wall := Summarize(walls)
	res.setSteady("typical_ms", wall)
	// A handful of jobs supports no percentile beyond the median (fewer than
	// ten samples would lie past it), so the median job stands for the slower
	// half of the run next to typical_ms, which is the faster quarter.
	res.Metrics["tail_ms"] = Metric{Value: wall.Median, Summary: &wall, Note: "median job wall"}
	res.set("holdout_acc", env.accuracy(first))
	res.set("goodput_share", 1-float64(res.Failed)/float64(res.Attempted))
	res.set("peak_rss_mb", readUsage().maxRSS)
	return nil, nil
}

// fleetCounters is a reading of everything a fleet counts on its own.
type fleetCounters struct {
	master  transport.Stats
	workers []transport.Stats
	busy    []float64
	snap    obs.Snapshot
}

func (f *fleet) counters() fleetCounters {
	c := fleetCounters{master: f.master.TransportStats(), snap: f.reg.Snapshot()}
	for _, w := range f.workers {
		c.workers = append(c.workers, w.TransportStats())
		c.busy = append(c.busy, w.BusySeconds())
	}
	return c
}

// runTrainTraced is the separate traced run. Three fleets take turns on the
// same job: the traced one (span decorators + obs registry), an untraced twin
// (for the tracing overhead) and an untraced one on the other fabric (for the
// fabric gap). What is left of the time goes to direct calls into the kernels
// on the workload's own columns and captured messages.
func runTrainTraced(s trainSpec, o Options, res *Result) ([]Span, error) {
	env, err := setUpTrain(s, o.Seed, true)
	if err != nil {
		return nil, err
	}
	defer env.close()
	res.set("synth.generate_s", env.genS)
	res.set("dataset.sortindex_build_s", env.sortS)
	var tableBytes int
	for _, c := range env.train.Cols {
		tableBytes += c.ByteSize() + c.SortIndexBytes()
	}
	res.set("dataset.table_mb", float64(tableBytes)/(1<<20))

	other := s.fleet
	other.tcp = !other.tcp
	fleets := []*fleet{env.fl}
	defer func() {
		for _, fl := range fleets[1:] {
			fl.close()
		}
	}()
	for _, fc := range []fleetConfig{s.fleet, other} {
		fl, err := newFleet(env.train, fc, false)
		if err != nil {
			return nil, err
		}
		fleets = append(fleets, fl)
		if err := env.warm(fl); err != nil {
			return nil, err
		}
	}

	before := env.fl.counters()
	walls := make([][]float64, len(fleets))
	var first jobOut
	splits := 0
	t0 := time.Now()
	for len(walls[0]) < 2 || time.Since(t0).Seconds() < 0.6*o.Seconds {
		for i, fl := range fleets {
			out, err := env.job(fl)
			if err != nil {
				return nil, err
			}
			walls[i] = append(walls[i], out.wall.Seconds())
			if i == 0 {
				splits += splitsOf(out.trees)
				if first.trees == nil {
					first = out
				}
			}
		}
	}
	after := env.fl.counters()
	jobs := float64(len(walls[0]))
	res.Attempted = len(walls[0])

	t0 = time.Now()
	want, err := env.oracle(1)
	if err != nil {
		return nil, err
	}
	serialS := time.Since(t0).Seconds()
	if !s.fleet.hist {
		if d := sameTrees(first.trees, want); d != "" {
			res.Failed = res.Attempted
			res.note("traced job 1 differs from the serial oracle: %s", d)
		}
	}

	traced, plain, cross := Median(walls[0]), Median(walls[1]), Median(walls[2])
	res.set("obs.trace_overhead_ratio", traced/plain)
	if s.fleet.tcp {
		res.set("cluster.fabric_gap_ratio", plain/cross)
	} else {
		res.set("cluster.fabric_gap_ratio", cross/plain)
	}
	res.set("cluster.speedup_vs_serial", serialS/plain)

	spans := env.fl.ctl.rec.Spans()
	tot := Totals(spans)
	jobWall := tot["job"].Dur.Seconds()
	share := func(d time.Duration, parts float64) float64 { return d.Seconds() / (jobWall * parts) }
	res.set("cluster.master.send_share", share(tot["master.send"].Dur, 1))
	res.set("cluster.master.handle_share", share(tot["master.handle"].Self, 1))
	res.set("cluster.master.recv_wait_share", share(tot["master.recv_wait"].Dur, 1))
	res.set("cluster.worker.send_share", share(tot["worker.send"].Dur, numWorkers))
	res.set("cluster.worker.handle_share", share(tot["worker.handle"].Self, numWorkers))
	var sends []float64
	for _, sp := range spans {
		if strings.HasSuffix(sp.Name, ".send") {
			sends = append(sends, float64(sp.Dur())/1e3)
		}
	}
	p, v := Tail(sends)
	res.Metrics["cluster.send_p99_us"] = Metric{Value: v, Note: fmt.Sprintf("p%g of %d sends", p, len(sends))}
	res.set("bench.unattributed_share", Uncovered(spans, "job", func(sp Span) bool {
		return !strings.HasSuffix(sp.Name, ".recv_wait")
	}))
	if s.rounds > 0 {
		st, tc := share(tot["gbt.settarget"].Dur, 1), share(tot["gbt.train_call"].Dur, 1)
		res.set("gbt.settarget_share", st)
		res.set("gbt.train_call_share", tc)
		res.set("gbt.driver_share", 1-st-tc)
		res.set("gbt.round_ms", jobWall*1e3/(jobs*float64(s.rounds)))
	}

	// Counters read at the same boundaries, per traced job.
	sub := func(a, b transport.Stats) transport.Stats {
		return transport.Stats{MsgsSent: a.MsgsSent - b.MsgsSent, MsgsReceived: a.MsgsReceived - b.MsgsReceived,
			BytesSent: a.BytesSent - b.BytesSent}
	}
	m := sub(after.master, before.master)
	var w transport.Stats // summed over workers
	for i := range after.workers {
		d := sub(after.workers[i], before.workers[i])
		w.MsgsSent += d.MsgsSent
		w.BytesSent += d.BytesSent
	}
	res.set("cluster.master.msgs_per_job", float64(m.MsgsSent+m.MsgsReceived)/jobs)
	res.set("cluster.master.bytes_per_job", float64(m.BytesSent)/jobs)
	res.set("cluster.worker.bytes_per_job", float64(w.BytesSent)/jobs)
	res.set("cluster.msgs_per_split", float64(m.MsgsSent+w.MsgsSent)/float64(splits))
	res.set("cluster.bytes_per_split", float64(m.BytesSent+w.BytesSent)/float64(splits))

	var busySum, busyMax float64
	for i := range after.busy {
		d := after.busy[i] - before.busy[i]
		busySum += d
		if d > busyMax {
			busyMax = d
		}
	}
	res.set("cluster.worker.busy_share", busySum/(jobWall*numWorkers*numCompers))
	if busySum > 0 {
		res.set("cluster.worker.busy_skew", busyMax/(busySum/float64(len(after.busy))))
	}

	a, b := after.snap, before.snap
	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	am, bm := a.Master, b.Master
	res.set("cluster.tasks_planned_per_job", float64(am.TasksPlanned-bm.TasksPlanned)/jobs)
	res.set("cluster.rows_planned_per_job", float64(am.RowsPlanned-bm.RowsPlanned)/jobs)
	res.set("cluster.plan_to_decide_ms", ratio(am.PlanToDecideNs-bm.PlanToDecideNs, am.PlanToDecideSpans-bm.PlanToDecideSpans)/1e6)
	res.set("cluster.confirm_to_split_ms", ratio(am.ConfirmToSplitNs-bm.ConfirmToSplitNs, am.ConfirmToSplitSpans-bm.ConfirmToSplitSpans)/1e6)
	res.set("cluster.bplan_highwater", float64(am.DequeHighWater))
	res.set("cluster.pool_highwater", float64(am.PoolHighWater))
	res.set("cluster.task_retry_ratio", ratio(am.TasksRetried-bm.TasksRetried, am.TasksPlanned-bm.TasksPlanned))
	res.set("cluster.hist_fetched_per_split", ratio(am.HistogramsFetched-bm.HistogramsFetched, int64(splits)))
	var serves, hits, misses, compNs int64
	for i := range a.Workers {
		var prev obs.WorkerSnapshot
		if i < len(b.Workers) {
			prev = b.Workers[i]
		}
		serves += a.Workers[i].RowServes - prev.RowServes
		hits += a.Workers[i].RowSetHits - prev.RowSetHits
		misses += a.Workers[i].RowSetMisses - prev.RowSetMisses
		compNs += a.Workers[i].CompNs - prev.CompNs
	}
	res.set("cluster.row_serves_per_job", float64(serves)/jobs)
	res.set("cluster.rowset_hit_ratio", ratio(hits, hits+misses))
	res.set("cluster.worker.comp_s_per_job", float64(compNs)/1e9/jobs)
	as, bs := a.Split, b.Split
	res.set("split.fastpath_ratio", ratio(as.FastPath-bs.FastPath, as.FastPath-bs.FastPath+as.Fallback-bs.Fallback))
	res.set("split.hist_sub_ratio", ratio(as.HistSubtractions-bs.HistSubtractions,
		as.HistSubtractions-bs.HistSubtractions+as.HistFills-bs.HistFills))

	if err := trainLayers(env, time.Duration(0.4*o.Seconds*float64(time.Second)), res); err != nil {
		return nil, err
	}
	return spans, nil
}
