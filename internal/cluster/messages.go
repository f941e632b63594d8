// Package cluster implements the TreeServer distributed engine: a master
// that manages node-centric tasks (Sections III–VI) and workers that compute
// them, connected by the transport fabric. The protocol reproduces the
// paper's designs precisely:
//
//   - column-partitioned data with k replicas; every worker holds Y;
//   - column-tasks and subtree-tasks (Fig. 3, Fig. 9);
//   - the hybrid BFS/DFS plan deque with τ_D / τ_dfs / n_pool (Fig. 4/5);
//   - row maintenance without master relaying (Section V): the delegate
//     worker of a column-task splits and serves I_xl / I_xr directly to the
//     workers of the child tasks; the master never ships row-index sets;
//   - the M_work cost model for plan-to-worker assignment (Section VI);
//   - fault tolerance: column re-replication and task revocation on worker
//     failure (Appendix E).
package cluster

import (
	"encoding/gob"
	"math/rand"
	"slices"

	"treeserver/internal/core"
	"treeserver/internal/dataset"
	"treeserver/internal/impurity"
	"treeserver/internal/split"
	"treeserver/internal/task"
)

// BagSpec determines the root row set I_root of one tree. It is derived
// deterministically from the seed, so any worker can materialise the same
// root rows without the master ever transmitting them.
type BagSpec struct {
	NumRows int
	// Sample > 0 draws that many rows with replacement (bagging); 0 uses
	// all rows.
	Sample int
	Seed   int64
}

// Rows materialises the root row-index set. Bootstrap samples are sorted so
// that training is order-deterministic.
func (b BagSpec) Rows() []int32 {
	if b.Sample <= 0 {
		return dataset.AllRows(b.NumRows)
	}
	rng := rand.New(rand.NewSource(b.Seed))
	rows := make([]int32, b.Sample)
	for i := range rows {
		rows[i] = int32(rng.Intn(b.NumRows))
	}
	slices.Sort(rows)
	return rows
}

// Size returns |I_root|.
func (b BagSpec) Size() int {
	if b.Sample > 0 {
		return b.Sample
	}
	return b.NumRows
}

// ParentRef locates the row-index set a task needs: side L/R of the parent
// task, held by the parent task's delegate worker. Worker == -1 marks a root
// task whose rows come from the bag instead.
type ParentRef struct {
	Task   task.ID
	Side   uint8 // 0 = left child, 1 = right child
	Worker int   // delegate worker of the parent task; -1 for root
	Bag    BagSpec
}

// IsRoot reports whether the rows come from the bag.
func (p ParentRef) IsRoot() bool { return p.Worker < 0 }

// NodeStats are the label statistics of D_x: class counts for
// classification, moments for regression. They travel with task results so
// the master can fill node predictions without ever touching row data.
type NodeStats struct {
	N      int
	Counts []int
	Sum    float64
	SumSq  float64
	Pure   bool
}

// StatsOf computes NodeStats exactly from the label column at the rows.
func StatsOf(y *dataset.Column, rows []int32, numClasses int) NodeStats {
	s := NodeStats{N: len(rows)}
	if y.Kind == dataset.Categorical {
		s.Counts = make([]int, numClasses)
		for _, r := range rows {
			s.Counts[y.Cats[r]]++
		}
		for _, c := range s.Counts {
			if c == s.N {
				s.Pure = true
			}
		}
		return s
	}
	s.Pure = true
	for i, r := range rows {
		v := y.Floats[r]
		s.Sum += v
		s.SumSq += v * v
		if i > 0 && v != y.Floats[rows[0]] {
			s.Pure = false
		}
	}
	if s.N == 0 {
		s.Pure = true
	}
	return s
}

// Fill writes the prediction implied by the stats into a node.
func (s NodeStats) Fill(n *core.Node) {
	n.N = s.N
	if s.Counts != nil {
		n.PMF = make([]float64, len(s.Counts))
		best := 0
		for i, c := range s.Counts {
			if s.N > 0 {
				n.PMF[i] = float64(c) / float64(s.N)
			}
			if c > s.Counts[best] {
				best = i
			}
		}
		n.Class = int32(best)
		if s.N == 0 {
			n.Class = -1
			n.PMF = nil
		}
		return
	}
	if s.N > 0 {
		n.Mean = s.Sum / float64(s.N)
	}
}

// Schema is the table metadata every machine shares: enough to validate
// plans and derive bags, without any row data.
type Schema struct {
	NumRows    int
	NumCols    int
	Target     int
	Kinds      []dataset.Kind
	NumClasses int
	Task       dataset.Task
}

// SchemaOf extracts the schema of a table.
func SchemaOf(t *dataset.Table) Schema {
	kinds := make([]dataset.Kind, len(t.Cols))
	for i, c := range t.Cols {
		kinds[i] = c.Kind
	}
	return Schema{
		NumRows: t.NumRows(), NumCols: len(t.Cols), Target: t.Target,
		Kinds: kinds, NumClasses: t.NumClasses(), Task: t.Task(),
	}
}

// --- Master -> worker messages (Task Comm.) ---

// ColumnPlanMsg assigns a column-task share: evaluate Cols over I_x (fetched
// from Parent) and return the best split condition among them.
type ColumnPlanMsg struct {
	Task task.ID
	// Attempt distinguishes re-executions of the same task after fault
	// recovery; stale results are discarded by attempt mismatch.
	Attempt    int
	Tree       int32
	Depth      int
	Size       int
	Cols       []int
	Parent     ParentRef
	Measure    impurity.Measure
	NumClasses int
	MaxExh     int
	// Random selects extra-trees behaviour: draw one random split on the
	// single column in Cols, seeded by RandomSeed.
	Random     bool
	RandomSeed int64
	// Hist selects the histogram protocol: answer with a TopKVoteMsg of at
	// most TopK candidates instead of a ColumnResultMsg.
	Hist bool
	TopK int
	// Job numbers the master's job the plan belongs to. Workers scope their
	// node-histogram cache to it on hist plans: the first plan of a different
	// job clears the cache, whose entries are keyed by the finished job's
	// task IDs and would never be read again.
	Job int64
	// Rows is only set in the relay-rows ablation, where the master ships
	// I_x itself instead of pointing at the parent's delegate worker.
	Rows []int32
}

// SubtreePlanMsg assigns a subtree-task to its key worker: collect D_x
// (columns from ColServer, rows from Parent, Y locally) and build Δ_x.
type SubtreePlanMsg struct {
	Task      task.ID
	Attempt   int
	Tree      int32
	Depth     int
	Size      int
	Parent    ParentRef
	Params    core.Params // Candidates hold original column indexes
	ColServer map[int]int // column -> serving worker
	// Rows is only set in the relay-rows ablation.
	Rows []int32
}

// ConfirmSplitMsg tells the delegate worker its candidate won: split I_x by
// Cond, report SplitDoneMsg, and retain I_xl / I_xr for the child tasks.
type ConfirmSplitMsg struct {
	Task task.ID
	// Attempt must match the worker's task attempt; confirms from a revoked
	// execution are ignored.
	Attempt int
	Cond    split.Condition
	// Relay asks the delegate to ship I_xl and I_xr back to the master in
	// SplitDoneMsg (relay-rows ablation).
	Relay bool
}

// DropTaskMsg tells a worker to discard all state for the task (losing
// column-task workers, revoked tasks during fault recovery).
type DropTaskMsg struct {
	Task task.ID
	// Attempt scopes the drop: a worker discards its task object only when
	// its attempt is <= Attempt, so a delayed drop from a revoked execution
	// cannot destroy the state of a newer one.
	Attempt int
}

// ReleaseSideMsg tells the delegate worker that no further requests for the
// given side's rows will arrive; it frees them, and the task object once
// both sides are released.
type ReleaseSideMsg struct {
	Task task.ID
	Side uint8
}

// PingMsg is the master's liveness probe.
type PingMsg struct{ Seq int64 }

// ProbeMsg is the master's quarantine-probation probe: a lightweight task the
// worker must turn around immediately. Unlike PingMsg it is sent in waves to
// every alive worker, so the acks of healthy workers form the latency
// baseline a quarantined worker's probation is judged against.
type ProbeMsg struct{ Seq int64 }

// ReplicateColumnMsg asks a surviving replica holder to copy a column to
// another worker (fault recovery).
type ReplicateColumnMsg struct {
	Col int
	To  int
}

// SetTargetMsg replaces the workers' label column with a new numeric
// target — the substrate for gradient-boosting rounds, where each round
// trains regression trees on updated pseudo-residuals.
type SetTargetMsg struct {
	Seq int64
	Y   []float64
}

// TargetAckMsg confirms a SetTargetMsg was applied.
type TargetAckMsg struct {
	Worker int
	Seq    int64
}

// ShutdownMsg terminates a worker's loops.
type ShutdownMsg struct{}

// RejoinRequestMsg is broadcast by a restarted (or promoted-standby) master:
// workers discard all in-flight task state (the new master re-plans
// everything unfinished under generation Gen) and report the column replicas
// they still hold. MasterAddr, when non-empty, is the new master's transport
// address — TCP workers repoint their "master" peer at it before replying.
type RejoinRequestMsg struct {
	Gen        int64
	MasterAddr string
}

// --- Worker -> master messages (Task Comm.) ---

// ColumnResultMsg reports one worker's best candidate over its assigned
// columns, plus the node's label stats (used for root tasks and purity
// checks). The candidate carries |I_xl| and |I_xr| as the paper requires, so
// the master can classify child tasks without seeing I_x.
type ColumnResultMsg struct {
	Task    task.ID
	Attempt int
	Worker  int
	Best    split.Candidate
	Stats   NodeStats
}

// SplitDoneMsg is the delegate's acknowledgement that I_x was partitioned.
// Child label stats let the master fill child node predictions and decide
// leaf conditions without any row traffic.
type SplitDoneMsg struct {
	Task       task.ID
	Attempt    int
	Worker     int
	LeftN      int
	RightN     int
	LeftStats  NodeStats
	RightStats NodeStats
	SeenCodes  []int32 // training-time codes of the winning categorical column
	// LeftRows/RightRows are only populated in the relay-rows ablation.
	LeftRows, RightRows []int32
}

// SubtreeResultMsg carries a completed subtree back to the master.
type SubtreeResultMsg struct {
	Task    task.ID
	Attempt int
	Worker  int
	Subtree *core.Tree
}

// PongMsg answers PingMsg.
type PongMsg struct {
	Worker int
	Seq    int64
}

// ProbeAckMsg answers ProbeMsg; the round-trip time is the worker's probation
// evidence.
type ProbeAckMsg struct {
	Worker int
	Seq    int64
}

// RejoinReportMsg answers RejoinRequestMsg: the worker's surviving column
// replicas, sorted ascending. The reports are authoritative for placement
// reconciliation — the checkpointed placement may predate re-replications or
// crashes that happened after the snapshot was written.
type RejoinReportMsg struct {
	Worker int
	Gen    int64
	Cols   []int
}

// WorkerErrorMsg surfaces a worker-side protocol failure to the master.
type WorkerErrorMsg struct {
	Worker int
	Task   task.ID
	Err    string
}

// --- Worker <-> worker messages (Data Comm.) ---

// RowsRequestMsg asks the parent task's delegate for I_x (Fig. 9 step
// "request for I_x").
type RowsRequestMsg struct {
	Parent    ParentRef
	ForTask   task.ID
	Requester int
}

// RowsResponseMsg returns the rows.
type RowsResponseMsg struct {
	ForTask task.ID
	Rows    []int32
}

// ColDataRequestMsg asks a data-serving worker for the values of Cols at the
// task's rows; the server fetches I_x from the parent delegate itself, so
// the key worker never relays rows either.
type ColDataRequestMsg struct {
	ForTask task.ID
	// Attempt is echoed into the response so the key worker can discard
	// shards gathered for a revoked execution (whose column set may differ).
	Attempt   int
	Cols      []int
	Parent    ParentRef
	KeyWorker int
	Requester int
	// Rows is only set in the relay-rows ablation, where the key worker
	// already holds I_x and forwards it instead of having the server fetch
	// it from the parent's delegate.
	Rows []int32
}

// ColDataResponseMsg returns the gathered column shards, aligned with Cols.
type ColDataResponseMsg struct {
	ForTask task.ID
	Attempt int
	Cols    []int
	Data    []*dataset.Column
}

// ColumnCopyMsg installs a full column replica on the receiving worker
// (fault recovery re-replication).
type ColumnCopyMsg struct {
	Col  int
	Data *dataset.Column
}

func init() {
	gob.Register(ColumnPlanMsg{})
	gob.Register(SubtreePlanMsg{})
	gob.Register(ConfirmSplitMsg{})
	gob.Register(DropTaskMsg{})
	gob.Register(ReleaseSideMsg{})
	gob.Register(PingMsg{})
	gob.Register(ProbeMsg{})
	gob.Register(ProbeAckMsg{})
	gob.Register(ReplicateColumnMsg{})
	gob.Register(SetTargetMsg{})
	gob.Register(TargetAckMsg{})
	gob.Register(ShutdownMsg{})
	gob.Register(RejoinRequestMsg{})
	gob.Register(RejoinReportMsg{})
	gob.Register(ColumnResultMsg{})
	gob.Register(SplitDoneMsg{})
	gob.Register(SubtreeResultMsg{})
	gob.Register(PongMsg{})
	gob.Register(WorkerErrorMsg{})
	gob.Register(RowsRequestMsg{})
	gob.Register(RowsResponseMsg{})
	gob.Register(ColDataRequestMsg{})
	gob.Register(ColDataResponseMsg{})
	gob.Register(ColumnCopyMsg{})
}

// WorkerName returns the transport name of worker i.
func WorkerName(i int) string {
	return "w" + itoa(i)
}

// MasterName is the master's transport name.
const MasterName = "master"

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [12]byte
	pos := len(buf)
	neg := i < 0
	if neg {
		i = -i
	}
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	if neg {
		pos--
		buf[pos] = '-'
	}
	return string(buf[pos:])
}
