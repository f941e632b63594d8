package cluster

import (
	"fmt"
	"sort"
	"time"

	"treeserver/internal/checkpoint"
	"treeserver/internal/core"
	"treeserver/internal/dataset"
	"treeserver/internal/loadbal"
	"treeserver/internal/obs"
	"treeserver/internal/task"
)

// Master crash recovery. The master checkpoints its job to disk (package
// checkpoint): a full snapshot at job start/end plus one appended record per
// completed tree, and optionally periodic snapshots. A replacement master
// loads the newest valid checkpoint, re-registers the surviving workers via
// the rejoin handshake, reconciles column placement against what they
// actually hold, and restarts only the unfinished trees. Because each tree is
// trained deterministically from its (Params, Bag) spec, restarting an
// in-progress tree from its root reproduces bit-identical results — the
// workers' column shards and target column survive the crash, so no data
// reload is needed.

// defaultMaxTreeRestarts bounds delegate-loss restarts per tree; a tree that
// keeps losing its delegates is evidence of a systemic fault the job should
// surface, not mask by restarting forever.
const defaultMaxTreeRestarts = 8

// --- Checkpoint writing ---

// checkpointStateLocked renders the master's durable state: job spec,
// placement, per-tree progress with completed trees (canon-witnessed), and
// the task-ledger counters. Caller holds m.mu.
func (m *Master) checkpointStateLocked() *checkpoint.State {
	st := &checkpoint.State{
		Gen:        m.gen,
		NumWorkers: m.cfg.NumWorkers,
		Replicas:   m.cfg.Replicas,
		NextTreeID: m.nextTreeID,
		Regression: m.schema.Task == dataset.Regression,
		Placement:  loadbal.Placement{Owners: make(map[int][]int, len(m.placement.Owners)), NumWorkers: m.placement.NumWorkers},
	}
	for col, owners := range m.placement.Owners {
		st.Placement.Owners[col] = append([]int(nil), owners...)
	}
	for i, spec := range m.jobSpecs {
		ts := checkpoint.TreeState{Params: spec.Params, Bag: checkpoint.Bag(spec.Bag)}
		if i < len(m.results) && m.results[i] != nil {
			ts.Done, ts.Tree, ts.Canon = true, m.results[i], m.results[i].Canon()
		}
		st.Trees = append(st.Trees, ts)
	}
	l := m.obs.Ledger()
	st.Ledger = checkpoint.Ledger{
		TasksPlanned: l.Planned, TasksConfirmed: l.Confirmed, TasksCompleted: l.Completed,
		TasksRetried: l.Retried, TasksSuperseded: l.Superseded, RowsPlanned: l.RowsPlanned,
	}
	return st
}

// writeSnapshotLocked writes a full snapshot through the checkpoint sink —
// the local log, the standby stream, or both. A failed write is counted and
// otherwise ignored — checkpointing degrades, the job does not.
func (m *Master) writeSnapshotLocked() {
	if m.sink == nil || m.jobSpecs == nil {
		return
	}
	start := time.Now()
	n, err := m.sink.Snapshot(m.checkpointStateLocked())
	if err != nil {
		m.obs.CheckpointError()
		return
	}
	// The checkpoint counters mean durable disk writes; a stream-only sink
	// reports through the stream counters instead.
	if m.ck != nil {
		m.obs.CheckpointWritten(true, n, time.Since(start))
	}
}

// appendTreeDoneLocked durably records one completed tree. If the append
// fails (e.g. the current file vanished) it falls back to a full snapshot so
// the completion is never lost silently.
func (m *Master) appendTreeDoneLocked(index int, tree *core.Tree) {
	if m.sink == nil {
		return
	}
	start := time.Now()
	n, err := m.sink.AppendTreeDone(checkpoint.TreeDone{Index: index, Tree: tree, Canon: tree.Canon()})
	if err != nil {
		m.obs.CheckpointError()
		m.writeSnapshotLocked()
		return
	}
	if m.ck != nil {
		m.obs.CheckpointWritten(false, n, time.Since(start))
	}
}

// checkpointLoop writes periodic snapshots between tree boundaries, bounding
// how much appended history a restart has to replay.
func (m *Master) checkpointLoop() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.cfg.CheckpointEvery)
	defer ticker.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-ticker.C:
		}
		m.mu.Lock()
		m.writeSnapshotLocked()
		m.mu.Unlock()
	}
}

// --- Resume: load, rejoin, reconcile, restart ---

// Resume recovers the job recorded in the master's checkpoint directory: it
// loads the newest valid checkpoint, runs the worker rejoin handshake,
// reconciles column placement, restarts the unfinished trees and blocks until
// the job completes. The returned trees are bit-identical to an uninterrupted
// run. The master must be Started; Resume serialises with Train.
func (m *Master) Resume() ([]*core.Tree, error) {
	if m.ck == nil {
		return nil, fmt.Errorf("cluster: Resume requires CheckpointDir")
	}
	st, info, err := checkpoint.Load(m.ck.Dir())
	if err != nil {
		return nil, err
	}
	return m.resumeFrom(st, info)
}

func (m *Master) resumeFrom(st *checkpoint.State, info checkpoint.LoadInfo) ([]*core.Tree, error) {
	m.jobMu.Lock()
	defer m.jobMu.Unlock()

	m.mu.Lock()
	// The generation fence: task IDs of this incarnation start at gen<<40,
	// so a stale result addressed to a pre-crash task ID can never collide
	// with an entry in the new task table.
	m.gen = st.Gen + 1
	m.nextTaskID = task.ID(m.gen << 40)
	m.job++
	m.nextTreeID = st.NextTreeID
	m.placement = st.Placement
	if st.NumWorkers > m.cfg.NumWorkers {
		// Workers joined live before the crash: the checkpointed fleet is
		// larger than this master was configured for. Adopt the grown fleet
		// so the rejoin broadcast addresses every slot.
		m.growFleetLocked(st.NumWorkers)
	}
	if st.Regression && m.schema.Task != dataset.Regression {
		// The job being resumed ran after a SetTarget swap; the workers still
		// hold the numeric labels, so only the master's schema needs to catch
		// up or it would plan classification-measure tasks over them.
		m.schema.NumClasses = 0
		m.schema.Task = dataset.Regression
		m.schema.Kinds[m.schema.Target] = dataset.Numeric
	}
	specs := make([]TreeSpec, len(st.Trees))
	m.results = make([]*core.Tree, len(st.Trees))
	m.remaining = 0
	m.jobErr = nil
	m.jobDone = make(chan struct{})
	for i, ts := range st.Trees {
		specs[i] = TreeSpec{Params: ts.Params, Bag: BagSpec(ts.Bag)}
		if ts.Done {
			m.results[i] = ts.Tree
		} else {
			m.remaining++
		}
	}
	m.jobSpecs = specs
	done := m.jobDone
	remaining := m.remaining
	gen := m.gen
	m.mu.Unlock()

	m.obs.RestoreCompleted(st.DoneTrees(), info.SkippedFiles, info.TruncatedRecords)
	m.obs.RestoreLedger(obs.TaskLedger{
		Planned: st.Ledger.TasksPlanned, Confirmed: st.Ledger.TasksConfirmed,
		Completed: st.Ledger.TasksCompleted, Retried: st.Ledger.TasksRetried,
		Superseded: st.Ledger.TasksSuperseded, RowsPlanned: st.Ledger.RowsPlanned,
	})

	if remaining == 0 {
		m.mu.Lock()
		defer m.mu.Unlock()
		m.writeSnapshotLocked()
		return m.results, nil
	}

	reports, err := m.rejoinWorkers(gen)
	if err != nil {
		return nil, err
	}
	if err := m.reconcilePlacement(reports); err != nil {
		return nil, err
	}
	if m.cfg.SplitMode == SplitHist {
		// A replacement master has no bins; workers reset theirs on rejoin.
		// Re-running the proposal round over the same columns reproduces the
		// same bins, so resumed trees stay deterministic.
		if err := m.ensureBins(); err != nil {
			return nil, err
		}
	}

	m.mu.Lock()
	// Durable before any new work: the snapshot with the bumped generation
	// ensures a second crash resumes with a yet-higher fence.
	m.writeSnapshotLocked()
	for i := range specs {
		if m.results[i] == nil {
			m.pendingTrees = append(m.pendingTrees, m.newAssembly(i, specs[i]))
		}
	}
	m.mu.Unlock()

	return m.awaitJob(done)
}

// rejoinWorkers broadcasts the rejoin request and collects the workers'
// held-column reports, waiting up to RejoinTimeout for stragglers. At least
// one worker must answer; non-reporters are marked failed.
func (m *Master) rejoinWorkers(gen int64) (map[int][]int, error) {
	m.mu.Lock()
	m.rejoinGen = gen
	m.rejoinReports = map[int][]int{}
	m.rejoinCh = make(chan struct{}, 1)
	ch := m.rejoinCh
	m.mu.Unlock()

	for w := 0; w < m.fleet(); w++ {
		m.send(w, RejoinRequestMsg{Gen: gen, MasterAddr: m.cfg.AdvertiseAddr})
	}

	timeout := m.cfg.RejoinTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	waiting := true
	for waiting {
		m.mu.Lock()
		n := len(m.rejoinReports)
		m.mu.Unlock()
		if n >= m.fleet() {
			break
		}
		select {
		case <-ch:
		case <-deadline.C:
			waiting = false
		case <-m.stop:
			return nil, fmt.Errorf("cluster: master stopped")
		}
	}

	m.mu.Lock()
	reports := m.rejoinReports
	m.rejoinReports, m.rejoinCh = nil, nil
	now := time.Now()
	for w := 0; w < m.cfg.NumWorkers; w++ {
		if _, ok := reports[w]; ok {
			m.alive[w] = true
			m.lastPong[w] = now
		} else {
			m.alive[w] = false
		}
	}
	m.mu.Unlock()
	if len(reports) == 0 {
		return nil, fmt.Errorf("cluster: no workers rejoined within %v", timeout)
	}
	return reports, nil
}

func (m *Master) handleRejoinReport(msg RejoinReportMsg) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.rejoinReports == nil || msg.Gen != m.rejoinGen ||
		msg.Worker < 0 || msg.Worker >= m.cfg.NumWorkers {
		return
	}
	if _, dup := m.rejoinReports[msg.Worker]; dup {
		return
	}
	m.rejoinReports[msg.Worker] = msg.Cols
	select {
	case m.rejoinCh <- struct{}{}:
	default:
	}
}

// reconcilePlacement rebuilds the column placement from the rejoin reports —
// the reports, not the checkpointed placement, are authoritative, because the
// snapshot may predate re-replications or crashes. Columns below the
// replication factor are re-replicated onto the least-loaded rejoined
// workers; a column no survivor holds is unrecoverable data loss and fails
// the resume with the column named.
func (m *Master) reconcilePlacement(reports map[int][]int) error {
	m.mu.Lock()
	defer m.mu.Unlock()

	held := map[int][]int{}
	for w := 0; w < m.cfg.NumWorkers; w++ {
		for _, col := range reports[w] {
			held[col] = append(held[col], w)
		}
	}
	// Iterate the checkpointed column set in sorted order so replication
	// targets (and thus the reconciled placement) are deterministic.
	cols := make([]int, 0, len(m.placement.Owners))
	for col := range m.placement.Owners {
		cols = append(cols, col)
	}
	sort.Ints(cols)

	load := map[int]int{}
	for _, holders := range held {
		for _, w := range holders {
			load[w]++
		}
	}
	replicas := m.cfg.Replicas
	if replicas <= 0 {
		replicas = 2
	}
	if replicas > len(reports) {
		replicas = len(reports)
	}

	owners := make(map[int][]int, len(cols))
	for _, col := range cols {
		holders := append([]int(nil), held[col]...)
		if len(holders) == 0 {
			return fmt.Errorf("cluster: column %d has no surviving replica after master restart", col)
		}
		for len(holders) < replicas {
			target, best := -1, int(^uint(0)>>1)
			for w := 0; w < m.cfg.NumWorkers; w++ {
				if !m.alive[w] || holdsCol(holders, w) {
					continue
				}
				if load[w] < best {
					target, best = w, load[w]
				}
			}
			if target < 0 {
				break // fewer rejoined workers than replicas: degrade
			}
			holders = append(holders, target)
			load[target]++
			m.send(holders[0], ReplicateColumnMsg{Col: col, To: target})
		}
		owners[col] = holders
	}
	m.placement = loadbal.Placement{Owners: owners, NumWorkers: m.cfg.NumWorkers}
	return nil
}

func holdsCol(holders []int, w int) bool {
	for _, h := range holders {
		if h == w {
			return true
		}
	}
	return false
}
