package cluster

import (
	"strings"
	"sync"
	"testing"
	"time"

	"treeserver/internal/checkpoint"
	"treeserver/internal/core"
	"treeserver/internal/dataset"
	"treeserver/internal/loadbal"
	"treeserver/internal/obs"
	"treeserver/internal/synth"
	"treeserver/internal/task"
	"treeserver/internal/transport"
)

// standbyConfig is the shared deployment for the hot-standby tests: diskless
// (no CheckpointDir — the stream is the only durability), a short lease so
// failover fires fast, and task retries so rejoin-era message loss heals.
func standbyConfig() Config {
	cfg := testConfig()
	cfg.Policy = task.Policy{TauD: 600, TauDFS: 2400, NPool: 2}
	cfg.Standby = true
	cfg.LeaseTTL = 150 * time.Millisecond
	cfg.TaskRetry = 250 * time.Millisecond
	cfg.MaxTaskAttempts = 8
	cfg.RejoinTimeout = 2 * time.Second
	cfg.Observer = obs.NewRegistry()
	return cfg
}

// killGate is the event trigger for the mid-job master kills. Installed
// through Config.WrapEndpoint, it decorates the first master endpoint only
// (the promoted successor's goes through untouched) and watches the
// primary's own traffic: once `trees` tree-done checkpoint records have left
// for the standby it parks every task-plan send, so the job cannot advance,
// let alone finish; lease traffic keeps flowing, and when `acks` lease acks
// have also arrived it closes ready. The test then kills the master; the kill
// closes the endpoint, which releases the parked sends into a dead fabric.
type killGate struct {
	trees, acks int
	ready       chan struct{}

	mu               sync.Mutex
	taken, signalled bool
	treesOut, acksIn int
}

func newKillGate(trees, acks int) *killGate {
	return &killGate{trees: trees, acks: acks, ready: make(chan struct{})}
}

func (g *killGate) wrap(ep transport.Endpoint) transport.Endpoint {
	g.mu.Lock()
	defer g.mu.Unlock()
	if ep.Name() != MasterName || g.taken {
		return ep
	}
	g.taken = true
	return &gatedEndpoint{Endpoint: ep, gate: g, released: make(chan struct{})}
}

// note records one observed event and reports whether plans are parked.
func (g *killGate) note(trees, acks int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.treesOut += trees
	g.acksIn += acks
	parked := g.treesOut >= g.trees
	if parked && g.acksIn >= g.acks && !g.signalled {
		g.signalled = true
		close(g.ready)
	}
	return parked
}

type gatedEndpoint struct {
	transport.Endpoint
	gate      *killGate
	released  chan struct{}
	closeOnce sync.Once
}

func (e *gatedEndpoint) Send(to string, payload any) error {
	switch msg := payload.(type) {
	case ColumnPlanMsg, SubtreePlanMsg:
		if e.gate.note(0, 0) {
			<-e.released
		}
	case CkptRecordMsg:
		err := e.Endpoint.Send(to, payload)
		if err == nil && msg.Kind == checkpoint.KindTreeDone {
			e.gate.note(1, 0)
		}
		return err
	}
	return e.Endpoint.Send(to, payload)
}

func (e *gatedEndpoint) Recv() (transport.Envelope, bool) {
	env, ok := e.Endpoint.Recv()
	if _, isAck := env.Payload.(LeaseAckMsg); isAck {
		e.gate.note(0, 1)
	}
	return env, ok
}

func (e *gatedEndpoint) Close() error {
	e.closeOnce.Do(func() { close(e.released) })
	return e.Endpoint.Close()
}

// killAtGate starts the job, blocks until the gate (installed on c through
// Config.WrapEndpoint) reports its precondition, then kills the primary
// without warning. Returns the Train error.
func killAtGate(t *testing.T, c *Cluster, specs []TreeSpec, g *killGate) error {
	t.Helper()
	trainErr := make(chan error, 1)
	go func() {
		_, err := c.Train(specs)
		trainErr <- err
	}()
	select {
	case <-g.ready:
	case err := <-trainErr:
		t.Fatalf("job ended before the kill gate closed (err=%v)", err)
	case <-time.After(30 * time.Second):
		t.Fatalf("kill precondition (%d tree-done records out, %d lease acks in) not reached within 30s", g.trees, g.acks)
	}
	c.KillMaster()
	return <-trainErr
}

// awaitFailover blocks until the standby finishes its takeover job.
func awaitFailover(t *testing.T, c *Cluster) []*core.Tree {
	t.Helper()
	select {
	case <-c.Standby.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("standby did not finish the job within 60s of the primary dying")
	}
	trees, err := c.Standby.Result()
	if err != nil {
		t.Fatalf("standby takeover failed: %v", err)
	}
	return trees
}

// TestStandbyFailoverDisklessBitIdentical is the tentpole guarantee: the
// primary dies mid-job with NO checkpoint directory configured, and the
// standby — fed only by the streamed records — finishes the forest
// bit-identical to the serial oracle, without any disk reload or
// RestartMaster call.
func TestStandbyFailoverDisklessBitIdentical(t *testing.T) {
	tbl := recoveryTable()
	specs := recoverySpecs(tbl.NumRows(), 8)

	cfg := standbyConfig()
	// Kill once two trees are replicated AND one lease renewal has been
	// acked — so the test covers the renew/ack path, not just the initial
	// grant.
	gate := newKillGate(2, 1)
	cfg.WrapEndpoint = gate.wrap
	c := newTestCluster(t, tbl, cfg)
	defer c.Close()
	if c.Master.cfg.CheckpointDir != "" {
		t.Fatal("test misconfigured: failover must be diskless")
	}

	if err := killAtGate(t, c, specs, gate); err == nil {
		t.Fatal("killed Train returned nil error")
	}
	got := awaitFailover(t, c)
	assertBitIdentical(t, got, serialOracle(tbl, specs))

	s := cfg.Observer.Snapshot().Master
	if s.Failovers != 1 {
		t.Fatalf("failovers %d, want 1", s.Failovers)
	}
	if s.StreamRecords < 3 { // job-start snapshot + >=2 tree-done records
		t.Fatalf("streamed %d records, want >= 3", s.StreamRecords)
	}
	if s.StreamApplied < 1 {
		t.Fatalf("replica applied %d records, want >= 1", s.StreamApplied)
	}
	if s.LeaseRenewals < 1 || s.LeaseAcks < 1 {
		t.Fatalf("lease traffic renewals=%d acks=%d, want both >= 1", s.LeaseRenewals, s.LeaseAcks)
	}
	if s.CheckpointSnapshots != 0 || s.CheckpointBytes != 0 {
		t.Fatalf("diskless run wrote %d snapshots / %d bytes to disk", s.CheckpointSnapshots, s.CheckpointBytes)
	}
}

// TestStandbyIdleWhilePrimaryHealthy: a healthy job with a standby attached
// completes normally on the primary; the standby replicates but never
// promotes, and the forest matches the oracle.
func TestStandbyIdleWhilePrimaryHealthy(t *testing.T) {
	tbl := recoveryTable()
	specs := recoverySpecs(tbl.NumRows(), 4)

	cfg := standbyConfig()
	c := newTestCluster(t, tbl, cfg)
	defer c.Close()

	got, err := c.Train(specs)
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	assertBitIdentical(t, got, serialOracle(tbl, specs))
	if c.Standby.Promoted() {
		t.Fatal("standby promoted under a healthy primary")
	}
	if applied, _ := c.Standby.ReplicaStats(); applied < 5 {
		// job-start snapshot + 4 tree-done records, at minimum
		t.Fatalf("replica applied %d records during a healthy job, want >= 5", applied)
	}
}

// TestStandbySetTargetAcrossFailover is the satellite-4 regression: a
// takeover immediately followed by the worker rejoin must leave the
// SetTarget machinery coherent. The workers' sequence fence resets with the
// rejoin (the promoted master counts from zero again), the resumed job keeps
// the regression schema recorded in the replicated snapshot, and the next
// boosting round applies exactly once per worker — no silent drop from a
// stale fence, no double-apply from resends. TargetApplies is the proof.
func TestStandbySetTargetAcrossFailover(t *testing.T) {
	tbl := recoveryTable()
	specs := recoverySpecs(tbl.NumRows(), 6)

	cfg := standbyConfig()
	gate := newKillGate(1, 0)
	cfg.WrapEndpoint = gate.wrap
	c := newTestCluster(t, tbl, cfg)
	defer c.Close()

	// Round 1 of a boosting cadence: swap in numeric labels, then train.
	y1 := make([]float64, tbl.NumRows())
	for i := range y1 {
		y1[i] = float64(i%7) - 3
	}
	if err := c.SetTarget(y1); err != nil {
		t.Fatalf("SetTarget round 1: %v", err)
	}
	for _, w := range c.Workers {
		if got := w.TargetApplies(); got != 1 {
			t.Fatalf("worker %d applied %d targets before the kill, want 1", w.ID(), got)
		}
	}

	if err := killAtGate(t, c, specs, gate); err == nil {
		t.Fatal("killed Train returned nil error")
	}
	got := awaitFailover(t, c)

	// The resumed regression job must match a serial run over the swapped
	// labels — proving the replicated snapshot carried the schema swap.
	cols := append([]*dataset.Column(nil), tbl.Cols...)
	cols[tbl.Target] = dataset.NewNumeric("Y", y1)
	swapped := &dataset.Table{Cols: cols, Target: tbl.Target}
	want := make([]*core.Tree, len(specs))
	for i, spec := range specs {
		want[i] = core.TrainLocal(swapped, spec.Bag.Rows(), spec.Params)
	}
	assertBitIdentical(t, got, want)

	// Round 2 against the promoted master: its sequence restarts at 1, which
	// the rejoin-reset worker fence must accept — and apply exactly once.
	promoted := c.Standby.Master()
	if promoted == nil {
		t.Fatal("no promoted master after failover")
	}
	y2 := make([]float64, tbl.NumRows())
	for i := range y2 {
		y2[i] = y1[i] * 0.5
	}
	if err := promoted.SetTarget(y2); err != nil {
		t.Fatalf("SetTarget round 2 on promoted master: %v", err)
	}
	for _, w := range c.Workers {
		if got := w.TargetApplies(); got != 2 {
			t.Fatalf("worker %d applied %d targets after failover round, want exactly 2", w.ID(), got)
		}
	}
}

// TestNoStandbyNoStreamTraffic pins the strictly-additive guarantee: with no
// standby configured, not one standby-protocol message crosses the fabric
// and the stream/lease counters stay zero, so scheduling and byte traffic
// are untouched.
func TestNoStandbyNoStreamTraffic(t *testing.T) {
	tbl := synth.GenerateTrain(synth.Spec{Name: "nostandby", Rows: 800, NumNumeric: 4,
		NumClasses: 2, ConceptDepth: 3, Seed: 9})
	cfg := testConfig()
	cfg.Observer = obs.NewRegistry()
	c := newTestCluster(t, tbl, cfg)
	defer c.Close()
	if _, err := c.Train(recoverySpecs(tbl.NumRows(), 2)); err != nil {
		t.Fatalf("train: %v", err)
	}
	snap := cfg.Observer.Snapshot()
	for _, msg := range snap.Messages {
		switch msg.Type {
		case "cluster.CkptRecordMsg", "cluster.LeaseGrantMsg", "cluster.LeaseRenewMsg",
			"cluster.LeaseAckMsg", "cluster.TakeoverMsg":
			t.Fatalf("standby-protocol message %s on the wire without a standby", msg.Type)
		}
	}
	m := snap.Master
	if m.StreamRecords != 0 || m.LeaseRenewals != 0 || m.Failovers != 0 {
		t.Fatalf("standby counters moved without a standby: records=%d renewals=%d failovers=%d",
			m.StreamRecords, m.LeaseRenewals, m.Failovers)
	}
}

// TestStandbyConfigValidation pins the option-surface errors.
func TestStandbyConfigValidation(t *testing.T) {
	tbl := synth.GenerateTrain(synth.Spec{Name: "sbv", Rows: 300, NumNumeric: 3,
		NumClasses: 2, ConceptDepth: 2, Seed: 5})
	if _, err := NewInProcess(tbl, WithJobTimeout(time.Minute), func(c *Config) { c.LeaseTTL = time.Second }); err == nil ||
		!strings.Contains(err.Error(), "LeaseTTL set without Standby") {
		t.Fatalf("LeaseTTL without Standby: %v", err)
	}
	if _, err := NewInProcess(tbl, WithStandby(), func(c *Config) { c.LeaseTTL = -time.Second }); err == nil ||
		!strings.Contains(err.Error(), "negative") {
		t.Fatalf("negative LeaseTTL: %v", err)
	}
	if _, err := NewMaster(nil, Schema{}, loadbal.Placement{}, MasterConfig{NumWorkers: 1, LeaseTTL: time.Second}); err == nil ||
		!strings.Contains(err.Error(), "LeaseTTL set without StandbyName") {
		t.Fatalf("MasterConfig LeaseTTL without StandbyName: %v", err)
	}
}
