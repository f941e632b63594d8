package chaostest

import (
	"testing"
	"time"

	"treeserver/internal/cluster"
	"treeserver/internal/dataset"
	"treeserver/internal/loadbal"
	"treeserver/internal/synth"
	"treeserver/internal/task"
	"treeserver/internal/transport"
)

// TestEquivalenceOverTCP is the grid's real-socket cell: master and workers
// are wired by hand over loopback TCP (the way cmd/treeserver deploys them),
// every TCPEndpoint is wrapped by the chaos fabric, and a forest plus three
// boosting rounds must still match the serial trainer bit for bit. Drops make
// task re-execution resend plans and bulk SetTarget frames down the
// long-lived gob streams; duplicates and reordering hit the same streams from
// the delivery side.
func TestEquivalenceOverTCP(t *testing.T) {
	cell := Cell{
		Name: "tcp-drops-dup-reorder",
		Seed: 14,
		Data: synth.Spec{Name: "tcp", Rows: 1600, NumNumeric: 7, NumCategorical: 3,
			CatLevels: 6, NumClasses: 2, ConceptDepth: 5, LabelNoise: 0.05, Seed: 24},
		Cluster: cluster.Config{Workers: 4, Compers: 2, Replicas: 2,
			Policy:    task.Policy{TauD: 400, TauDFS: 1200, NPool: 8},
			TaskRetry: 250 * time.Millisecond, MaxTaskAttempts: 8},
		Plan: transport.FaultPlan{Name: "tcp-drops-dup-reorder", Links: []transport.LinkFault{
			{From: "*", To: "*", Drop: 0.02, Dup: 0.03, Reorder: 0.03}}},
		ExpectFaults: true,
		Trees:        2, Bag: 1200, MaxDepth: 8,
		GBTRounds: 3,
	}
	tbl := synth.GenerateTrain(cell.Data)
	chaos := transport.NewChaosNetwork(cell.Seed, cell.Plan)
	cc := cell.Cluster

	listen := func(name string) *transport.TCPEndpoint {
		ep, err := transport.ListenTCP(name, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatalf("listen %s: %v", name, err)
		}
		t.Cleanup(func() { ep.Close() })
		return ep
	}
	mep := listen(cluster.MasterName)
	weps := make([]*transport.TCPEndpoint, cc.Workers)
	for i := range weps {
		weps[i] = listen(cluster.WorkerName(i))
	}

	schema := cluster.SchemaOf(tbl)
	placement := loadbal.RoundRobin(tbl.FeatureIndexes(), cc.Workers, cc.Replicas)
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
		w := cluster.NewWorker(i, chaos.Wrap(ep), schema, cols, tbl.Y(), cc.Compers, nil)
		w.Start()
		defer w.Stop()
	}
	m, err := cluster.NewMaster(chaos.Wrap(mep), schema, placement, cluster.MasterConfig{
		NumWorkers: cc.Workers, Replicas: cc.Replicas, Policy: cc.Policy,
		TaskRetry: cc.TaskRetry, MaxTaskAttempts: cc.MaxTaskAttempts,
		JobTimeout: planTimeout(cell.Plan),
	})
	if err != nil {
		t.Fatalf("NewMaster: %v", err)
	}
	m.Start()
	defer m.Stop()

	assertEquivalent(t, cell, chaos, tbl, m)
	if s := mep.Stats(); s.BytesSent == 0 || s.BytesReceived == 0 {
		t.Fatalf("no TCP traffic recorded on the master: %+v", s)
	}
}
