package obs

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"treeserver/internal/transport"
)

// TestNilSafety drives every collector method through a nil receiver — the
// disabled-telemetry path must be a no-op, never a panic.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.CountSend("a", "b", "T", 10)
	r.CountRetry("a", "b")
	if got := r.Snapshot(); len(got.Workers) != 0 || got.Master.TasksPlanned != 0 {
		t.Fatalf("nil registry snapshot not zero: %+v", got)
	}
	r.PublishExpvar()

	m := r.Master()
	if m != nil {
		t.Fatal("nil registry returned non-nil MasterObs")
	}
	m.PlanPushed(true)
	m.PlanRequeued()
	m.SetDequeDepth(3)
	m.SetPool(2)
	m.TaskPlanned(100, 1)
	m.TaskConfirmed(time.Millisecond)
	m.TaskCompleted()
	m.SplitApplied(time.Millisecond)
	m.TaskRetried()
	m.TaskSuperseded()
	m.CheckpointWritten(true, 100, time.Millisecond)
	m.CheckpointError()
	m.RestoreCompleted(2, 1, 1)
	m.TreeRestarted(1)
	m.HedgeLaunched()
	m.HedgeWon()
	m.HedgeWasted()
	m.WorkerQuarantined()
	m.ProbeSent()
	m.WorkerRestored()
	m.SetWorkerHealth([]float64{1, 0.5}, []string{"closed", "open"})
	m.RestoreLedger(TaskLedger{Planned: 5})
	if got := m.Ledger(); got != (TaskLedger{}) {
		t.Fatalf("nil MasterObs ledger not zero: %+v", got)
	}

	w := r.Worker(0)
	w.AddComp(time.Millisecond)
	w.AddSend(time.Millisecond)
	w.AddRecv(time.Millisecond)
	w.RowServed(time.Millisecond)
	w.RowSetGet(true)

	c := r.Split()
	c.DispatchFast()
	c.DispatchFallback()
	c.DispatchCategorical()
	c.ScratchGet(false)

	ep := transport.NewMemNetwork().Endpoint("x")
	if got := r.Wrap(ep); got != transport.Endpoint(ep) {
		t.Fatal("nil registry Wrap should return the endpoint unchanged")
	}
}

// TestHealthTelemetry checks the gray-failure counters and the health gauge
// round-trip through Snapshot and surface in Report.
func TestHealthTelemetry(t *testing.T) {
	r := NewRegistry()
	m := r.Master()
	for i := 0; i < 3; i++ {
		m.HedgeLaunched()
	}
	m.HedgeWon()
	m.HedgeWasted()
	m.HedgeWasted()
	m.WorkerQuarantined()
	m.ProbeSent()
	m.ProbeSent()
	m.WorkerRestored()
	m.SetWorkerHealth([]float64{1.0, 0.02, 0.97}, []string{"closed", "open", "closed"})
	// Gauge semantics: a second pass overwrites, not appends.
	m.SetWorkerHealth([]float64{1.0, 0.04, 0.99}, []string{"closed", "half-open", "closed"})

	s := r.Snapshot()
	if s.Master.HedgesLaunched != 3 || s.Master.HedgesWon != 1 || s.Master.HedgesWasted != 2 {
		t.Fatalf("hedge counters: %+v", s.Master)
	}
	if s.Master.Quarantines != 1 || s.Master.ProbesSent != 2 || s.Master.QuarantineRestores != 1 {
		t.Fatalf("quarantine counters: %+v", s.Master)
	}
	if len(s.Master.HealthScores) != 3 || s.Master.HealthScores[1] != 0.04 {
		t.Fatalf("health scores: %v", s.Master.HealthScores)
	}
	if s.Master.QuarantineStates[1] != "half-open" {
		t.Fatalf("quarantine states: %v", s.Master.QuarantineStates)
	}
	rep := s.Report()
	for _, want := range []string{"hedging: 3 launched, 1 won, 2 wasted", "quarantine: 1 opened, 1 restored, 2 probes", "w1=0.04(half-open)"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestCounterAllocs proves the per-event collector methods allocate nothing:
// they sit on worker/master hot paths and the kernel dispatch path.
func TestCounterAllocs(t *testing.T) {
	r := NewRegistry()
	m := r.Master()
	c := r.Split()
	if n := testing.AllocsPerRun(100, func() {
		m.HedgeLaunched()
		m.HedgeWon()
		m.HedgeWasted()
		m.WorkerQuarantined()
		m.ProbeSent()
		m.WorkerRestored()
		c.DispatchFast()
		c.ScratchGet(true)
	}); n != 0 {
		t.Fatalf("counter methods allocate %v per run, want 0", n)
	}
	scores := []float64{1, 1}
	states := []string{"closed", "closed"}
	m.SetWorkerHealth(scores, states) // warm the gauge buffers
	if n := testing.AllocsPerRun(100, func() {
		m.SetWorkerHealth(scores, states)
	}); n != 0 {
		t.Fatalf("SetWorkerHealth allocates %v per run after warm-up, want 0", n)
	}
	var payload any = pingMsg{N: 1}
	if got, want := r.typeLabel(payload), fmt.Sprintf("%T", payload); got != want {
		t.Fatalf("typeLabel = %q, want %q", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { _ = r.typeLabel(payload) }); n != 0 {
		t.Fatalf("typeLabel allocates %v per run once cached, want 0", n)
	}
}

// TestConcurrentCounters hammers one registry from many goroutines; run
// under -race this is the package's data-race certificate.
func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	const goroutines, iters = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := r.Master()
			w := r.Worker(g % 3)
			c := r.Split()
			for i := 0; i < iters; i++ {
				m.PlanPushed(i%2 == 0)
				m.SetDequeDepth(i)
				m.SetPool(i % 7)
				m.TaskPlanned(10, 1)
				m.TaskCompleted()
				m.HedgeLaunched()
				m.SetWorkerHealth([]float64{1, float64(i)}, []string{"closed", "open"})
				w.AddComp(time.Microsecond)
				w.AddRecv(time.Microsecond)
				c.DispatchFast()
				c.ScratchGet(i%2 == 0)
				r.CountSend("w0", "master", "obs.testMsg", 8)
				r.CountRetry("w0", "master")
			}
		}(g)
	}
	wg.Wait()

	s := r.Snapshot()
	total := int64(goroutines * iters)
	if s.Master.TasksPlanned != total || s.Master.TasksCompleted != total {
		t.Fatalf("lifecycle counts: planned %d completed %d, want %d", s.Master.TasksPlanned, s.Master.TasksCompleted, total)
	}
	if s.Master.PushesBFS+s.Master.PushesDFS != total {
		t.Fatalf("push counts: %d bfs + %d dfs, want %d", s.Master.PushesBFS, s.Master.PushesDFS, total)
	}
	if s.Master.DequeHighWater != iters-1 {
		t.Fatalf("deque high-water %d, want %d", s.Master.DequeHighWater, iters-1)
	}
	if len(s.Workers) != 3 {
		t.Fatalf("worker count %d, want 3", len(s.Workers))
	}
	if len(s.Links) != 1 || s.Links[0].Msgs != total || s.Links[0].Retries != total {
		t.Fatalf("link counters wrong: %+v", s.Links)
	}
	if s.Links[0].From != "w0" || s.Links[0].To != "master" {
		t.Fatalf("link key wrong: %+v", s.Links[0])
	}
	if len(s.Messages) != 1 || s.Messages[0].Count != total || s.Messages[0].Bytes != total*8 {
		t.Fatalf("message counters wrong: %+v", s.Messages)
	}
	if s.Split.FastPath != total {
		t.Fatalf("split fast-path %d, want %d", s.Split.FastPath, total)
	}
	if s.Retries() != total {
		t.Fatalf("Retries() %d, want %d", s.Retries(), total)
	}
}

type pingMsg struct{ N int }

func init() { gob.Register(pingMsg{}) }

// TestEndpointDecorator checks the transport decorator counts delivered
// messages per link and per concrete type, and that retries reported through
// SendWithRetry land in the link counter.
func TestEndpointDecorator(t *testing.T) {
	net := transport.NewMemNetwork()
	r := NewRegistry()
	a := r.Wrap(net.Endpoint("a"))
	net.Endpoint("b")

	for i := 0; i < 5; i++ {
		if err := a.Send("b", pingMsg{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Send("nobody", pingMsg{}); err == nil {
		t.Fatal("send to unknown endpoint should fail")
	}

	if rr, ok := a.(transport.RetryReporter); !ok {
		t.Fatal("obs.Endpoint must implement transport.RetryReporter")
	} else {
		rr.SendRetried("b")
	}

	s := r.Snapshot()
	if len(s.Links) != 1 || s.Links[0].Msgs != 5 {
		t.Fatalf("link counters: %+v (failed sends must not count)", s.Links)
	}
	if s.Links[0].Bytes <= 0 {
		t.Fatalf("link bytes not counted: %+v", s.Links[0])
	}
	if s.Links[0].Retries != 1 {
		t.Fatalf("retries %d, want 1", s.Links[0].Retries)
	}
	if len(s.Messages) != 1 || !strings.Contains(s.Messages[0].Type, "pingMsg") {
		t.Fatalf("message type accounting: %+v", s.Messages)
	}
	if a.Name() != "a" {
		t.Fatalf("decorator Name %q", a.Name())
	}
}

// TestSnapshotSerialisable pins the gob/JSON contract of Snapshot.
func TestSnapshotSerialisable(t *testing.T) {
	r := NewRegistry()
	r.Master().TaskPlanned(42, 1)
	r.Worker(1).AddComp(3 * time.Millisecond)
	r.CountSend("master", "w1", "cluster.ColumnPlanMsg", 128)
	s := r.Snapshot()

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	var back Snapshot
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatalf("gob decode: %v", err)
	}
	if back.Master.TasksPlanned != 1 || back.Master.RowsPlanned != 42 {
		t.Fatalf("gob round-trip lost data: %+v", back.Master)
	}

	data, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("json marshal: %v", err)
	}
	var jback Snapshot
	if err := json.Unmarshal(data, &jback); err != nil {
		t.Fatalf("json unmarshal: %v", err)
	}
	if len(jback.Workers) != 1 || jback.Workers[0].CompNs != int64(3*time.Millisecond) {
		t.Fatalf("json round-trip lost worker data: %+v", jback.Workers)
	}

	if mw := s.MWork(); len(mw) != 1 || mw[0][0] <= 0 {
		t.Fatalf("MWork: %v", mw)
	}
}

// TestReport sanity-checks the human-readable rendering mentions the core
// sections without pinning exact formatting.
func TestReport(t *testing.T) {
	r := NewRegistry()
	r.Master().PlanPushed(true)
	r.Master().TaskPlanned(10, 1)
	r.Master().TaskCompleted()
	r.Worker(0).AddComp(time.Second)
	r.Split().DispatchFast()
	r.CountSend("w0", "master", "cluster.ColumnResultMsg", 64)
	rep := r.Snapshot().Report()
	for _, want := range []string{"tasks:", "B_plan", "M_work", "split kernels", "links"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestDebugHandler exercises the opt-in debug mux endpoints.
func TestDebugHandler(t *testing.T) {
	r := NewRegistry()
	r.Worker(2).AddComp(time.Millisecond)
	h := r.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/obs", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/obs status %d", rec.Code)
	}
	var s Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
		t.Fatalf("/debug/obs body not a Snapshot: %v", err)
	}
	if len(s.Workers) != 1 || s.Workers[0].ID != 2 {
		t.Fatalf("/debug/obs workers: %+v", s.Workers)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "treeserver_obs") {
		t.Fatalf("/debug/vars missing treeserver_obs (status %d)", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/pprof/ status %d", rec.Code)
	}
}

// TestCheckpointCounters drives the durable-master telemetry end to end:
// write accounting, restore accounting and tree-restart high-water marks.
func TestCheckpointCounters(t *testing.T) {
	r := NewRegistry()
	m := r.Master()
	m.CheckpointWritten(true, 1000, 2*time.Millisecond)
	m.CheckpointWritten(false, 50, time.Millisecond)
	m.CheckpointWritten(false, 50, time.Millisecond)
	m.CheckpointError()
	m.RestoreCompleted(3, 1, 2)
	m.TreeRestarted(1)
	m.TreeRestarted(2)

	s := r.Snapshot().Master
	if s.CheckpointSnapshots != 1 || s.CheckpointRecords != 2 {
		t.Fatalf("write counts: snapshots %d records %d", s.CheckpointSnapshots, s.CheckpointRecords)
	}
	if s.CheckpointBytes != 1100 || s.CheckpointNs != int64(4*time.Millisecond) {
		t.Fatalf("write sums: bytes %d ns %d", s.CheckpointBytes, s.CheckpointNs)
	}
	if s.CheckpointErrors != 1 {
		t.Fatalf("errors %d, want 1", s.CheckpointErrors)
	}
	if s.Restores != 1 || s.RestoredTrees != 3 || s.RestoreSkippedFiles != 1 || s.RestoreTruncatedRecords != 2 {
		t.Fatalf("restore counts: %+v", s)
	}
	if s.TreeRestarts != 2 || s.TreeRestartMax != 2 {
		t.Fatalf("tree restarts %d max %d", s.TreeRestarts, s.TreeRestartMax)
	}
	report := r.Snapshot().Report()
	for _, want := range []string{"checkpoint:", "recovery:", "tree restarts:"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
}

// TestRestoreLedgerMaxMerge: restoring is max, not add — idempotent, and
// safe whether the registry is fresh (live 0) or survived in-process.
func TestRestoreLedgerMaxMerge(t *testing.T) {
	r := NewRegistry()
	m := r.Master()
	m.TaskPlanned(100, 1)
	m.TaskPlanned(100, 1)
	m.TaskCompleted()

	persisted := TaskLedger{Planned: 10, Confirmed: 4, Completed: 9, Retried: 1, RowsPlanned: 5000}
	m.RestoreLedger(persisted)
	m.RestoreLedger(persisted) // idempotent
	got := m.Ledger()
	want := TaskLedger{Planned: 10, Confirmed: 4, Completed: 9, Retried: 1, RowsPlanned: 5000}
	if got != want {
		t.Fatalf("after merge into fresh registry: got %+v want %+v", got, want)
	}

	// Live counters already past the persisted values stay untouched.
	m.RestoreLedger(TaskLedger{Planned: 3, Completed: 2})
	if got := m.Ledger(); got.Planned != 10 || got.Completed != 9 {
		t.Fatalf("max-merge regressed live counters: %+v", got)
	}
}
