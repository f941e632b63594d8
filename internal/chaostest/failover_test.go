package chaostest

import (
	"strings"
	"sync"
	"testing"
	"time"

	"treeserver/internal/cluster"
	"treeserver/internal/core"
	"treeserver/internal/obs"
	"treeserver/internal/synth"
	"treeserver/internal/task"
	"treeserver/internal/transport"
)

// failoverCell extends a grid Cell with a hot-standby failover trigger. Every
// cell runs DISKLESS — no CheckpointDir — so the streamed replica is the only
// recovery state and a passing cell structurally proves the standby finished
// the job without a restart-from-disk (no RestartMaster, no Resume).
type failoverCell struct {
	Cell
	// KillAfterTrees >= 0 kills the primary once that many trees are complete
	// and the job-start snapshot has been replicated. -1 never kills: the
	// cell's first partition starves the lease instead while a planGate holds
	// the primary's task plans, so a still-running primary must be fenced out
	// of the job (split-brain).
	KillAfterTrees int
	// WantFenced asserts the primary's Train error is the takeover fence
	// (generation supersession / endpoint rebind) rather than a plain kill.
	WantFenced bool
}

// planGate is the event trigger of the split-brain cell. Composed over the
// chaos decorator, it wraps the first master endpoint only (the promoted
// successor's goes through untouched) and counts the primary's sends to the
// standby: once the partition's first cut message has gone out, every
// task-plan send parks, so the job cannot advance, let alone finish, while
// lease and checkpoint traffic keep flowing into the partition. The test
// releases the parked sends when it observes the promotion — the workers
// answer to the promoted master by then, so the primary must be fenced —
// and closing the endpoint releases them too.
type planGate struct {
	fromSeq  int
	released chan struct{}
	once     sync.Once

	mu        sync.Mutex
	taken     bool
	toStandby int
}

func newPlanGate(fromSeq int) *planGate {
	return &planGate{fromSeq: fromSeq, released: make(chan struct{})}
}

func (g *planGate) wrap(ep transport.Endpoint) transport.Endpoint {
	g.mu.Lock()
	defer g.mu.Unlock()
	if ep.Name() != cluster.MasterName || g.taken {
		return ep
	}
	g.taken = true
	return &planGatedEndpoint{Endpoint: ep, gate: g}
}

// partitioned reports whether the partition has cut a primary->standby send.
func (g *planGate) partitioned() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.toStandby > g.fromSeq
}

func (g *planGate) release() { g.once.Do(func() { close(g.released) }) }

type planGatedEndpoint struct {
	transport.Endpoint
	gate *planGate
}

func (e *planGatedEndpoint) Send(to string, payload any) error {
	switch payload.(type) {
	case cluster.ColumnPlanMsg, cluster.SubtreePlanMsg:
		if e.gate.partitioned() {
			<-e.gate.released
		}
	}
	if to == cluster.StandbyName {
		e.gate.mu.Lock()
		e.gate.toStandby++
		e.gate.mu.Unlock()
	}
	return e.Endpoint.Send(to, payload)
}

func (e *planGatedEndpoint) Close() error {
	e.gate.release()
	return e.Endpoint.Close()
}

func failoverCells() []failoverCell {
	data := synth.Spec{Name: "fo", Rows: 2200, NumNumeric: 6, NumCategorical: 3,
		CatLevels: 5, NumClasses: 3, MissingRate: 0.05, ConceptDepth: 6, LabelNoise: 0.05, Seed: 41}
	cfg := cluster.Config{Workers: 4, Compers: 2, Replicas: 2,
		Policy:        task.Policy{TauD: 500, TauDFS: 1500, NPool: 2},
		Standby:       true,
		LeaseTTL:      200 * time.Millisecond,
		RejoinTimeout: 5 * time.Second,
		JobTimeout:    2 * time.Minute,
	}
	// The lossy cell needs master-side re-execution for dropped task traffic,
	// and periodic stream snapshots so a silently dropped job-start record is
	// re-sent rather than stranding the replica empty.
	lossy := cfg
	lossy.TaskRetry = 250 * time.Millisecond
	lossy.MaxTaskAttempts = 8
	lossy.CheckpointEvery = 50 * time.Millisecond
	return []failoverCell{
		{
			// Killed during construction of the first tree: the replica holds
			// only the job-start snapshot, so the promoted standby retrains
			// the entire forest from scratch. The delay-only plan (delays are
			// not faults) stretches the job past the first lease renewal so
			// the kill lands while tree 0 is still being built.
			Cell: Cell{Name: "failover-during-first-tree", Seed: 51, Data: data, Cluster: cfg,
				Plan: transport.FaultPlan{Name: "delays-only", Links: []transport.LinkFault{
					{From: "*", To: "*", Delay: 300 * time.Microsecond, Jitter: 300 * time.Microsecond}}},
				Trees: 8, Bag: 1600, MaxDepth: 8},
			KillAfterTrees: 0,
		},
		{
			// Killed mid-job on a lossy, laggy fabric: replicated trees come
			// back from the stream, the rest retrain through the chaos, and
			// any record the fabric ate is healed by periodic re-snapshots.
			Cell: Cell{Name: "failover-mid-job-chaos", Seed: 52, Data: data, Cluster: lossy,
				Plan: transport.FaultPlan{Name: "drops-delays", Links: []transport.LinkFault{
					{From: "*", To: "*", Drop: 0.01, Delay: 100 * time.Microsecond, Jitter: 300 * time.Microsecond}}},
				ExpectFaults: true, Trees: 6, Bag: 1600, MaxDepth: 8},
			KillAfterTrees: 2,
		},
		{
			// Split-brain: the fabric cuts every primary<->standby link once
			// the lease grant and job-start snapshot have passed, while leaving
			// the primary<->worker links healthy. The primary keeps running,
			// the standby's watched lease lapses and it promotes anyway; the
			// generation fence plus the endpoint rebind must discard the stale
			// primary mid-flight and the promoted standby still finishes
			// bit-identical. The plan gate holds the primary's task plans from
			// the moment the partition is active until the promotion, so the
			// primary cannot finish the forest first however fast it trains.
			Cell: Cell{Name: "failover-split-brain", Seed: 53, Data: data, Cluster: cfg,
				Plan: transport.FaultPlan{Name: "split-brain",
					Links: []transport.LinkFault{
						{From: "*", To: "*", Delay: 500 * time.Microsecond, Jitter: 500 * time.Microsecond}},
					Partitions: []transport.Partition{
						{A: []string{cluster.MasterName}, B: []string{cluster.StandbyName},
							FromSeq: 4, UntilSeq: 1 << 30}}},
				ExpectFaults: true, Trees: 6, Bag: 1600, MaxDepth: 8},
			KillAfterTrees: -1,
			WantFenced:     true,
		},
	}
}

// TestStandbyFailover is the hot-standby equivalence grid: crash or partition
// the primary at the cell's chosen point and require the standby — fed only
// by the streamed checkpoint records, never by disk — to promote within a
// bounded stall and finish the forest bit-for-bit identical to the serial
// trainer.
func TestStandbyFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("failover grid skipped in -short mode")
	}
	for _, cell := range failoverCells() {
		cell := cell
		t.Run(cell.Name, func(t *testing.T) {
			t.Parallel()
			runFailover(t, cell)
		})
	}
}

func runFailover(t *testing.T, cell failoverCell) {
	tbl := synth.GenerateTrain(cell.Data)

	var chaos *transport.ChaosNetwork
	cfg := cell.Cluster
	if cfg.JobTimeout == 0 {
		cfg.JobTimeout = planTimeout(cell.Plan)
	}
	if cfg.CheckpointDir != "" {
		t.Fatal("failover cells must be diskless: the stream is the only recovery state")
	}
	var gate *planGate
	if !cell.Raw {
		chaos = transport.NewChaosNetwork(cell.Seed, cell.Plan)
		cfg.WrapEndpoint = chaos.Wrap
		if cell.KillAfterTrees < 0 {
			gate = newPlanGate(cell.Plan.Partitions[0].FromSeq)
			defer gate.release()
			cfg.WrapEndpoint = func(ep transport.Endpoint) transport.Endpoint { return gate.wrap(chaos.Wrap(ep)) }
		}
	}
	reg := obs.NewRegistry()
	cfg.Observer = reg
	c, err := cluster.NewInProcess(tbl, cluster.WithConfig(cfg))
	if err != nil {
		failf(t, cell.Cell, chaos, "NewInProcess: %v", err)
	}
	defer c.Close()

	specs := forestSpecs(cell.Cell, tbl.NumRows())
	trainErr := make(chan error, 1)
	go func() {
		_, err := c.Train(specs)
		trainErr <- err
	}()

	// Trigger the failover. For kill cells, wait until the job-start snapshot
	// is replicated, at least one lease renewal has been acked (so the cell
	// exercises the renew/ack path, not just the initial grant), and the
	// crash point is reached — then fail-stop the primary. The split-brain
	// cell needs no help: its partition activates on its own link sequence
	// numbers, and its gate holds the primary back until the promotion.
	var stallFrom time.Time
	if cell.KillAfterTrees >= 0 {
		deadline := time.After(time.Minute)
		for {
			applied, _ := c.Standby.ReplicaStats()
			if applied >= 1 && reg.Snapshot().Master.LeaseAcks >= 1 &&
				c.Master.CompletedTrees() >= cell.KillAfterTrees {
				break
			}
			select {
			case err := <-trainErr:
				failf(t, cell.Cell, chaos, "job finished (err=%v) before the kill point", err)
			case <-deadline:
				failf(t, cell.Cell, chaos, "kill point (%d trees + replicated snapshot) not reached within 1m", cell.KillAfterTrees)
			case <-time.After(500 * time.Microsecond):
			}
		}
		stallFrom = time.Now()
		c.KillMaster()
		if err := <-trainErr; err == nil || !strings.Contains(err.Error(), "master stopped") {
			failf(t, cell.Cell, chaos, "killed Train returned %v, want 'master stopped'", err)
		}
	} else {
		stallFrom = time.Now()
	}

	// The stall must be bounded: lease lapse + watchdog tick + rejoin, not a
	// job-timeout crawl. The bound is deliberately generous (parallel -race
	// cells share the machine); the log line carries the measured value.
	promoteDeadline := time.After(time.Minute)
	for !c.Standby.Promoted() {
		select {
		case <-promoteDeadline:
			failf(t, cell.Cell, chaos, "standby never promoted after the primary was lost")
		case <-time.After(time.Millisecond):
		}
	}
	stall := time.Since(stallFrom)
	if gate != nil {
		gate.release()
	}
	if stall > 20*time.Second {
		failf(t, cell.Cell, chaos, "failover stall %v exceeds the 20s bound", stall)
	}
	t.Logf("cell %q: failover stall (loss -> promotion) %v", cell.Name, stall)

	// A split-brain primary is still running when the standby promotes; the
	// takeover must evict it with the fence, not leave two masters driving
	// the same fleet.
	if cell.WantFenced {
		select {
		case err := <-trainErr:
			if err == nil || !strings.Contains(err.Error(), "fenced") {
				failf(t, cell.Cell, chaos, "stale primary's Train returned %v, want the takeover fence", err)
			}
		case <-time.After(time.Minute):
			failf(t, cell.Cell, chaos, "stale primary kept running unfenced after the takeover")
		}
	}

	select {
	case <-c.Standby.Done():
	case <-time.After(cfg.JobTimeout + time.Minute):
		failf(t, cell.Cell, chaos, "standby did not finish the job")
	}
	trees, err := c.Standby.Result()
	if err != nil {
		failf(t, cell.Cell, chaos, "standby takeover failed: %v", err)
	}

	for i, spec := range specs {
		serial := core.TrainLocal(tbl, spec.Bag.Rows(), spec.Params)
		if d := core.DiffTrees(serial, trees[i]); d != "" {
			failf(t, cell.Cell, chaos, "tree %d diverges from serial after failover:\n%s", i, d)
		}
	}

	// The whole fleet survived the failover and rejoined the promoted master.
	promoted := c.Standby.Master()
	if promoted == nil {
		failf(t, cell.Cell, chaos, "no promoted master after a completed takeover")
	}
	if alive := promoted.AliveWorkers(); len(alive) != cfg.Workers {
		failf(t, cell.Cell, chaos, "alive workers %v after rejoin, want all %d", alive, cfg.Workers)
	}

	s := reg.Snapshot().Master
	if s.Failovers != 1 {
		failf(t, cell.Cell, chaos, "telemetry: %d failovers, want 1", s.Failovers)
	}
	if s.StreamRecords < 1 || s.StreamApplied < 1 {
		failf(t, cell.Cell, chaos, "telemetry: %d records streamed / %d applied, want both >= 1", s.StreamRecords, s.StreamApplied)
	}
	if s.LeaseRenewals < 1 {
		failf(t, cell.Cell, chaos, "telemetry: no lease renewals before the failover")
	}
	// Diskless proof: not one checkpoint byte touched disk.
	if s.CheckpointSnapshots != 0 || s.CheckpointBytes != 0 {
		failf(t, cell.Cell, chaos, "telemetry: diskless cell wrote %d snapshots / %d bytes to disk", s.CheckpointSnapshots, s.CheckpointBytes)
	}
	if chaos != nil {
		if cell.ExpectFaults && chaos.Faults() == 0 {
			failf(t, cell.Cell, chaos, "plan injected no faults — cell is not testing anything")
		}
		t.Logf("cell %q: seed=%d, %d messages traced, %d faults injected", cell.Name, chaos.Seed(), len(chaos.Trace()), chaos.Faults())
	}
	verifyTelemetry(t, cell.Cell, chaos, reg)
	if cell.Verify != nil {
		cell.Verify(t, reg)
	}
}
