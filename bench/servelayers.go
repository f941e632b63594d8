package bench

import (
	"net/http"
	"testing"
	"time"

	"treeserver/internal/infer"
	"treeserver/internal/registry"
	"treeserver/internal/serve"
)

// runServeTraced is the serving workloads' separate traced run: the load with
// a span per request, the same load untraced (their ratio is the tracing
// overhead), then direct single-goroutine calls into infer, registry and serve
// on the workload's own bodies to split a request into decode, predict and
// the handler's own share.
func runServeTraced(s serveSpec, o Options, res *Result) ([]Span, error) {
	env, err := setUpServe(s, o.Seed)
	if err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes, env.notes...)
	res.Attempted, res.Failed = env.checked, env.failed
	res.set("synth.generate_s", env.genS)
	res.set("model.load_ms", env.loadMs)
	res.set("registry.load_ms", env.registryMs)
	var tableBytes int
	for _, c := range env.train.Cols {
		tableBytes += c.ByteSize() + c.SortIndexBytes()
	}
	res.set("dataset.table_mb", float64(tableBytes)/(1<<20))
	t0 := time.Now()
	m, err := infer.Compile(env.mf)
	if err != nil {
		return nil, err
	}
	res.set("infer.compile_ms", time.Since(t0).Seconds()*1e3)

	ctl := newTraceCtl()
	loadS := 0.25 * o.Seconds
	var sentN, shedN int
	if s.open {
		addr, stop, err := listen(hardened(env.reg))
		if err != nil {
			return nil, err
		}
		traced := env.openLoop(addr, o.Seed, loadS, ctl)
		plain := env.openLoop(addr, o.Seed, loadS, nil)
		stop()
		for i, st := range traced {
			res.Steps = append(res.Steps, st.RateStep)
			sentN += st.Sent
			shedN += st.Shed
			res.Attempted += st.Sent
			res.Failed += st.Sent - st.Succeeded
			res.set("serve.p99_ms_rate_"+stepName[i], st.P99Ms)
		}
		res.set("serve.gen_lateness_p99_ms", traced[1].LatenessP99Ms)
		res.set("obs.trace_overhead_ratio", Median(traced[1].roundtrips)/Median(plain[1].roundtrips))
	} else {
		per := time.Duration(loadS / 2 * float64(time.Second))
		var traced, plain []float64 // seconds per row
		for i := 0; i < 2; i++ {
			w := env.closedLoop(per, ctl, i*7)
			traced = append(traced, w.wall.Seconds()/float64(w.rows))
			sentN += w.requests
			shedN += w.shed
			res.Attempted += w.requests
			res.Failed += w.non200
			w = env.closedLoop(per, nil, i*7)
			plain = append(plain, w.wall.Seconds()/float64(w.rows))
		}
		res.set("obs.trace_overhead_ratio", Median(traced)/Median(plain))
	}
	res.set("serve.shed_ratio", float64(shedN)/float64(sentN))
	spans := ctl.rec.Spans()
	res.set("bench.unattributed_share", Uncovered(spans, "job", func(sp Span) bool { return sp.Name != "gen.wait" }))

	if err := env.serveLayers(m, time.Duration(0.5*o.Seconds*float64(time.Second)), res); err != nil {
		return nil, err
	}
	return spans, nil
}

// serveLayers times the layers under one request with direct calls, one
// goroutine, cycling the workload's own bodies in the proportions of its mix.
func (e *serveEnv) serveLayers(m *infer.Model, budget time.Duration, res *Result) error {
	slice := budget / 10

	// The request stream of this workload: every distinct body when there is
	// one size, otherwise twenty requests in the proportions of the mix.
	var stream []body
	if len(e.spec.mix) == 1 {
		stream = e.bodies[0]
	} else {
		for k, mix := range e.spec.mix {
			for i := 0; i < int(mix.share*20+0.5); i++ {
				stream = append(stream, e.bodies[k][i%len(e.bodies[k])])
			}
		}
	}
	var streamRows int
	for _, b := range stream {
		streamRows += len(b.rows)
	}
	perStream := func(f func(b body)) float64 { // ns per pass over the stream
		return perCall(slice, func() {
			for _, b := range stream {
				f(b)
			}
		})
	}

	// infer: decode alone, then predict alone on pre-decoded blocks.
	var decodeErr error
	block := m.GetBlock()
	decodeNs := perStream(func(b body) {
		block.Reset()
		if _, err := m.DecodeRequest(block, b.data, 0); err != nil {
			decodeErr = err
		}
	})
	m.PutBlock(block)
	if decodeErr != nil {
		return decodeErr
	}
	blocks := make([]*infer.RowBlock, len(stream))
	for i, b := range stream {
		blocks[i] = m.GetBlock()
		if _, err := m.DecodeRequest(blocks[i], b.data, 0); err != nil {
			return err
		}
	}
	result := m.GetResult()
	predictNs := perCall(slice, func() {
		for _, blk := range blocks {
			m.Predict(blk, result, 0)
		}
	})
	res.set("infer.decode_ns_per_row", decodeNs/float64(streamRows))
	res.set("infer.predict_ns_per_row", predictNs/float64(streamRows))
	res.set("infer.allocs_per_request", testing.AllocsPerRun(20, func() {
		blk, r := m.GetBlock(), m.GetResult()
		_, _ = m.DecodeRequest(blk, stream[0].data, 0)
		m.Predict(blk, r, 0)
		m.PutResult(r)
		m.PutBlock(blk)
	}))

	// infer: the batch-size cliff, on blocks filled straight from held-out rows.
	cliff := func(batch int) (float64, error) {
		blk := m.GetBlock()
		defer m.PutBlock(blk)
		for r := 0; r < batch; r++ {
			if err := m.AppendTableRow(blk, e.test, r%e.test.NumRows()); err != nil {
				return 0, err
			}
		}
		return perCall(slice/2, func() { m.Predict(blk, result, 0) }) / float64(batch), nil
	}
	at64, err := cliff(64)
	if err != nil {
		return err
	}
	at1024, err := cliff(1024)
	if err != nil {
		return err
	}
	res.set("infer.batch_cliff_ratio", at1024/at64)
	m.PutResult(result)
	for _, blk := range blocks {
		m.PutBlock(blk)
	}

	// registry: the route lookup every request makes.
	key := registry.HashKey("10.0.0.1")
	res.set("registry.route_ns", perCall(slice, func() { e.reg.Route(modelName, key) }))

	// serve: the whole handler on the same stream, and what is left of it
	// once decode and predict are taken out.
	c := newCaller(e.srv, false)
	bad := 0
	handlerNs := perStream(func(b body) {
		if c.call(b.data) != http.StatusOK {
			bad++
		}
	})
	if bad > 0 {
		res.note("%d direct handler calls did not return 200", bad)
		res.Failed += bad
	}
	res.set("serve.handler_ns_per_req", handlerNs/float64(len(stream)))
	res.set("serve.decode_share", decodeNs/handlerNs)
	res.set("serve.predict_share", predictNs/handlerNs)
	res.set("serve.self_share", 1-decodeNs/handlerNs-predictNs/handlerNs)
	res.set("serve.allocs_per_req", testing.AllocsPerRun(20, func() { c.call(stream[0].data) }))

	// serve: hardened against plain server at batch 64, in alternating short
	// turns so drift and frequency steps hit both arms; medians, not means.
	rows64 := make([]int32, 64)
	for i := range rows64 {
		rows64[i] = int32(i)
	}
	body64 := renderBody(e.test, rows64)
	arms := [2]*caller{newCaller(serve.New(e.reg), false), newCaller(e.srv, false)}
	var armNs [2][]float64
	for deadline := time.Now().Add(2 * slice); time.Now().Before(deadline) || len(armNs[1]) < 5; {
		for a, arm := range arms {
			t0 := time.Now()
			for i := 0; i < 20; i++ {
				arm.call(body64)
			}
			armNs[a] = append(armNs[a], float64(time.Since(t0).Nanoseconds())/20)
		}
	}
	res.set("serve.resilience_overhead_ratio", Median(armNs[1])/Median(armNs[0]))

	// serve: what the socket adds to a one-row request.
	addr, stop, err := listen(hardened(e.reg))
	if err != nil {
		return err
	}
	defer stop()
	one := renderBody(e.test, []int32{0})
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	url := "http://" + addr + "/v1/models/" + modelName + "/predict"
	overSocket := perCall(slice, func() { post(client, url, one) })
	inProcess := perCall(slice, func() { c.call(one) })
	res.set("serve.http_overhead_us", (overSocket-inProcess)/1e3)
	return nil
}
