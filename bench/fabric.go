package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"treeserver/internal/cluster"
	"treeserver/internal/core"
	"treeserver/internal/dataset"
	"treeserver/internal/gbt"
	"treeserver/internal/loadbal"
	"treeserver/internal/obs"
	"treeserver/internal/task"
	"treeserver/internal/transport"
)

// Every training cluster is this shape: sized for the 2-core host the
// benchmark is judged on, so compers are not oversubscribed.
const (
	numWorkers  = 2
	numCompers  = 1
	numReplicas = 2
)

// traceCtl is what the decorators of one fleet share: the recorder and which
// job is running. Spans are only kept while a job is active, and a span that
// began before the job (the master blocked in Recv across the gap between two
// jobs) is clipped to the job's start, so shares of job wall stay honest.
type traceCtl struct {
	rec      *Recorder
	active   atomic.Bool
	job      atomic.Int64
	root     atomic.Int32
	jobStart atomic.Int64 // UnixNano

	mu    sync.Mutex
	small any // first ColumnPlanMsg seen: the small-frame specimen
	bulk  any // largest bulk message seen
	bulkN int
}

func newTraceCtl() *traceCtl { return &traceCtl{rec: NewRecorder()} }

// beginJob opens the root span of one job; endJob closes it.
func (c *traceCtl) beginJob() {
	id := c.job.Add(1)
	c.jobStart.Store(time.Now().UnixNano())
	c.root.Store(int32(c.rec.Begin("job", "driver", 0, id)))
	c.active.Store(true)
}

func (c *traceCtl) endJob() {
	c.active.Store(false)
	c.rec.End(SpanID(c.root.Load()))
}

// add records a leaf span under parent (0 = the job root) if a job is active.
func (c *traceCtl) add(name, track string, parent SpanID, t0, t1 time.Time) {
	if !c.active.Load() {
		return
	}
	if js := c.jobStart.Load(); t0.UnixNano() < js {
		t0 = time.Unix(0, js)
	}
	if parent == 0 {
		parent = SpanID(c.root.Load())
	}
	c.rec.Add(name, track, parent, c.job.Load(), t0, t1)
}

// capture keeps wire specimens for the transport micro-measurements: what the
// workload really sends, not a made-up message.
func (c *traceCtl) capture(payload any) {
	n := 0
	switch m := payload.(type) {
	case cluster.ColumnPlanMsg:
		c.mu.Lock()
		if c.small == nil {
			c.small = m
		}
		c.mu.Unlock()
		return
	case cluster.SetTargetMsg:
		n = 8 * len(m.Y)
	case cluster.RowsResponseMsg:
		n = 4 * len(m.Rows)
	case cluster.ColDataResponseMsg:
		for _, col := range m.Data {
			n += col.ByteSize()
		}
	default:
		return
	}
	c.mu.Lock()
	if n > c.bulkN {
		c.bulk, c.bulkN = payload, n
	}
	c.mu.Unlock()
}

// goid returns the calling goroutine's id, parsed from its stack header. It
// costs about a microsecond and is only called on the traced path, where it
// lets a Send be attributed to the handler that made it rather than to
// whichever handler happened to be open on that endpoint.
func goid() int64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	var id int64
	for _, ch := range buf[len("goroutine "):n] {
		if ch < '0' || ch > '9' {
			break
		}
		id = id*10 + int64(ch-'0')
	}
	return id
}

// taskKey matches a task plan arriving at a worker with the result leaving it.
type taskKey struct {
	id      task.ID
	attempt int
}

// spanEndpoint decorates a transport.Endpoint with spans at the boundary the
// cluster crosses: each Send, each wait in Recv, and the "handle" interval
// from a Recv return to the next Recv call. On workers it also pairs each
// task plan with its result into a worker.task span (queueing for the comper
// plus the kernel) — compute the endpoint itself never sees.
type spanEndpoint struct {
	inner transport.Endpoint
	ctl   *traceCtl
	role  string // "master" or "worker"

	handle   atomic.Int32 // open handle span of the receive thread
	recvGoid atomic.Int64

	mu    sync.Mutex
	tasks map[taskKey]time.Time
}

func (c *traceCtl) wrap(ep transport.Endpoint) transport.Endpoint {
	role := "worker"
	if ep.Name() == cluster.MasterName {
		role = "master"
	}
	return &spanEndpoint{inner: ep, ctl: c, role: role, tasks: make(map[taskKey]time.Time)}
}

func (e *spanEndpoint) Name() string           { return e.inner.Name() }
func (e *spanEndpoint) Close() error           { return e.inner.Close() }
func (e *spanEndpoint) Stats() transport.Stats { return e.inner.Stats() }

func (e *spanEndpoint) Send(to string, payload any) error {
	if !e.ctl.active.Load() {
		return e.inner.Send(to, payload)
	}
	e.ctl.capture(payload)
	t0 := time.Now()
	err := e.inner.Send(to, payload)
	t1 := time.Now()
	parent, track := SpanID(0), e.inner.Name()+"/send"
	if h := e.handle.Load(); h != 0 && goid() == e.recvGoid.Load() {
		parent, track = SpanID(h), e.inner.Name()
	}
	e.ctl.add(e.role+".send", track, parent, t0, t1)
	if e.role == "worker" {
		var key taskKey
		switch m := payload.(type) {
		case cluster.ColumnResultMsg:
			key = taskKey{m.Task, m.Attempt}
		case cluster.TopKVoteMsg:
			key = taskKey{m.Task, m.Attempt}
		case cluster.SubtreeResultMsg:
			key = taskKey{m.Task, m.Attempt}
		default:
			return err
		}
		e.mu.Lock()
		start, ok := e.tasks[key]
		delete(e.tasks, key)
		e.mu.Unlock()
		if ok {
			e.ctl.add("worker.task", e.inner.Name()+"/task", 0, start, t0)
		}
	}
	return err
}

func (e *spanEndpoint) Recv() (transport.Envelope, bool) {
	if h := e.handle.Swap(0); h != 0 {
		e.ctl.rec.End(SpanID(h))
	}
	t0 := time.Now()
	env, ok := e.inner.Recv()
	if !ok || !e.ctl.active.Load() {
		return env, ok
	}
	t1 := time.Now()
	e.ctl.add(e.role+".recv_wait", e.inner.Name(), 0, t0, t1)
	if e.role == "worker" {
		switch m := env.Payload.(type) {
		case cluster.ColumnPlanMsg:
			e.mu.Lock()
			e.tasks[taskKey{m.Task, m.Attempt}] = t1
			e.mu.Unlock()
		case cluster.SubtreePlanMsg:
			e.mu.Lock()
			e.tasks[taskKey{m.Task, m.Attempt}] = t1
			e.mu.Unlock()
		}
	}
	if e.recvGoid.Load() == 0 {
		e.recvGoid.Store(goid())
	}
	root := SpanID(e.ctl.root.Load())
	e.handle.Store(int32(e.ctl.rec.Begin(e.role+".handle", e.inner.Name(), root, e.ctl.job.Load())))
	return env, ok
}

// spanEngine times the two calls gbt.Train makes into its engine; what is
// left of the job is the driver's own gradient and margin arithmetic.
type spanEngine struct {
	inner gbt.Engine
	ctl   *traceCtl
}

func (s spanEngine) Train(specs []cluster.TreeSpec) ([]*core.Tree, error) {
	t0 := time.Now()
	trees, err := s.inner.Train(specs)
	s.ctl.add("gbt.train_call", "driver", 0, t0, time.Now())
	return trees, err
}

func (s spanEngine) SetTarget(y []float64) error {
	t0 := time.Now()
	err := s.inner.SetTarget(y)
	s.ctl.add("gbt.settarget", "driver", 0, t0, time.Now())
	return err
}

// fleet is one master and its workers on either fabric, with the handles the
// benchmark reads counters from.
type fleet struct {
	master  *cluster.Master
	workers []*cluster.Worker
	ctl     *traceCtl     // nil on an untraced fleet
	reg     *obs.Registry // nil on an untraced fleet
	close   func()
}

// fleetConfig is what distinguishes the clusters of the four training
// workloads.
type fleetConfig struct {
	policy  task.Policy
	hist    bool
	maxBins int
	topK    int
	tcp     bool
}

// newFleet brings a cluster up. traced attaches the span decorator to every
// endpoint and an obs.Registry to every layer; untraced attaches nothing, so
// end-to-end numbers never pay for either.
func newFleet(tbl *dataset.Table, fc fleetConfig, traced bool) (*fleet, error) {
	f := &fleet{}
	if traced {
		f.ctl = newTraceCtl()
		f.reg = obs.NewRegistry()
	}
	if fc.tcp {
		return f, f.bringUpTCP(tbl, fc)
	}
	opts := []cluster.Option{
		cluster.WithWorkers(numWorkers), cluster.WithCompers(numCompers),
		cluster.WithReplicas(numReplicas), cluster.WithPolicy(fc.policy),
	}
	if fc.hist {
		opts = append(opts, cluster.WithSplitMode(cluster.SplitHist),
			cluster.WithMaxBins(fc.maxBins), cluster.WithTopK(fc.topK))
	}
	if traced {
		opts = append(opts, cluster.WithEndpointWrapper(f.ctl.wrap), cluster.WithObserver(f.reg))
	}
	c, err := cluster.NewInProcess(tbl, opts...)
	if err != nil {
		return nil, err
	}
	f.master, f.workers, f.close = c.Master, c.Workers, c.Close
	return f, nil
}

// bringUpTCP wires master and workers over loopback sockets by hand, the way
// TestClusterOverTCP and cmd/treeserver do: listen on ephemeral ports, then
// fill in every peer table.
func (f *fleet) bringUpTCP(tbl *dataset.Table, fc fleetConfig) error {
	schema := cluster.SchemaOf(tbl)
	placement := loadbal.RoundRobin(tbl.FeatureIndexes(), numWorkers, numReplicas)
	var raw []*transport.TCPEndpoint
	closeRaw := func() {
		for _, ep := range raw {
			ep.Close()
		}
	}
	listen := func(name string) (*transport.TCPEndpoint, error) {
		ep, err := transport.ListenTCP(name, "127.0.0.1:0", nil)
		if err != nil {
			closeRaw()
			return nil, fmt.Errorf("bench: listen %s: %w", name, err)
		}
		raw = append(raw, ep)
		return ep, nil
	}
	mep, err := listen(cluster.MasterName)
	if err != nil {
		return err
	}
	weps := make([]*transport.TCPEndpoint, numWorkers)
	for i := range weps {
		if weps[i], err = listen(cluster.WorkerName(i)); err != nil {
			return err
		}
	}
	decorate := func(ep transport.Endpoint) transport.Endpoint {
		if f.ctl != nil {
			ep = f.ctl.wrap(ep)
		}
		return f.reg.Wrap(ep)
	}
	for i, ep := range weps {
		ep.AddPeer(cluster.MasterName, mep.Addr())
		mep.AddPeer(cluster.WorkerName(i), ep.Addr())
		for j, other := range weps {
			if j != i {
				ep.AddPeer(cluster.WorkerName(j), other.Addr())
			}
		}
		cols := map[int]*dataset.Column{}
		for col, owners := range placement.Owners {
			for _, o := range owners {
				if o == i {
					cols[col] = tbl.Cols[col]
				}
			}
		}
		w := cluster.NewWorker(i, decorate(ep), schema, cols, tbl.Y(), numCompers, f.reg)
		w.Start()
		f.workers = append(f.workers, w)
	}
	cfg := cluster.MasterConfig{
		NumWorkers: numWorkers, Policy: fc.policy, JobTimeout: 2 * time.Minute,
		Replicas: numReplicas, Obs: f.reg,
	}
	if fc.hist {
		cfg.SplitMode, cfg.MaxBins, cfg.TopK = cluster.SplitHist, fc.maxBins, fc.topK
	}
	m, err := cluster.NewMaster(decorate(mep), schema, placement, cfg)
	if err != nil {
		for _, w := range f.workers {
			w.Stop()
		}
		closeRaw()
		return err
	}
	m.Start()
	f.master = m
	f.close = func() {
		m.Stop()
		for _, w := range f.workers {
			w.Stop()
		}
	}
	return nil
}

// engine is the gbt view of the fleet, span-decorated when traced.
func (f *fleet) engine() gbt.Engine {
	if f.ctl != nil {
		return spanEngine{inner: f.master, ctl: f.ctl}
	}
	return f.master
}
