package bench

import (
	"bytes"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// arrival is one scheduled request of the open loop.
type arrival struct {
	due  time.Duration // from the step's start
	body *body
}

// sent is what happened to one arrival.
type sent struct {
	seq       int
	latency   time.Duration // response complete - due
	lateness  time.Duration // send start - due: how late the generator ran
	roundtrip time.Duration // response complete - send start
	code      int
	rows      int
}

// stepOut is one rate step in full; RateStep is its summary.
type stepOut struct {
	RateStep
	wall       time.Duration
	cpu        time.Duration
	rows       int         // rows in 200 responses
	windows    [][]float64 // latency from due time (ms), in sub-windows of arrival order
	roundtrips []float64   // ms
}

// stepShare is how a run's seconds are divided among the lo, mid and hi
// rates: the middle rate carries the end-to-end latency metrics, so it gets
// the samples.
var stepShare = [3]float64{0.2, 0.6, 0.2}

var stepName = [3]string{"lo", "mid", "hi"}

// timerSlack measures how far time.Sleep overshoots on this host (100 µs on
// a kernel with high-resolution timers, a millisecond and more without). The
// generator hands time.Sleep only the part of a wait beyond this and spins
// through the rest, because a request sent a timer tick late would be charged
// to the server: latency runs from the due time.
func timerSlack() time.Duration {
	var over []float64
	for i := 0; i < 15; i++ {
		t0 := time.Now()
		time.Sleep(50 * time.Microsecond)
		over = append(over, float64(time.Since(t0)))
	}
	_, _, q3 := Quartiles(over)
	return time.Duration(1.5 * q3)
}

// waitUntil returns at due: it sleeps while the wait is longer than slack and
// busy-waits the remainder. Only the one dispatcher goroutine ever does this.
// It must not yield while it spins: a goroutine that is always runnable keeps
// the Go scheduler from ever finding a P idle, and it is idle Ps that poll the
// network, so a yielding spinner delays every socket wake-up to sysmon's 10 ms
// round. A plain spin occupies one P and leaves the other to the server.
func waitUntil(due time.Time, slack time.Duration) {
	if d := time.Until(due); d > slack {
		time.Sleep(d - slack)
	}
	for time.Now().Before(due) {
	}
}

// schedule draws one step's arrivals from the seed: Poisson arrivals at rate
// per second for dur, each with a batch size drawn from the mix and one of
// that size's distinct bodies.
func (e *serveEnv) schedule(seed int64, step int, rate float64, dur time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(step)))
	var out []arrival
	var t float64 // seconds
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return out
		}
		u, k := rng.Float64(), 0
		for k < len(e.spec.mix)-1 && u >= e.spec.mix[k].share {
			u -= e.spec.mix[k].share
			k++
		}
		set := e.bodies[k]
		out = append(out, arrival{due: due, body: &set[rng.Intn(len(set))]})
	}
}

// openLoop sends the three rate steps to the server at addr over
// serveClients keep-alive connections and returns each step's account.
// Requests are sent when they are due whether or not earlier ones have
// returned — unless every connection is still busy, in which case they wait
// and that wait counts, because latency is taken from the due time.
func (e *serveEnv) openLoop(addr string, seed int64, seconds float64, ctl *traceCtl) []stepOut {
	url := "http://" + addr + "/v1/models/" + modelName + "/predict"
	clients := make([]*http.Client, serveClients)
	for i := range clients {
		tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
		defer tr.CloseIdleConnections()
		clients[i] = &http.Client{Transport: tr}
		post(clients[i], url, e.bodies[0][0].data) // dial and warm the connection outside the timing
	}
	slack := timerSlack()
	var steps []stepOut
	for k, rate := range e.spec.rates {
		dur := time.Duration(seconds * stepShare[k] * float64(time.Second))
		out := e.runStep(clients, url, e.schedule(seed, k, rate, dur), dur, slack, ctl)
		out.Name, out.RatePerS = stepName[k], rate
		steps = append(steps, out)
	}
	return steps
}

func post(c *http.Client, url string, data []byte) int {
	resp, err := c.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return 0
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// runStep sends one step's arrivals. A system so far behind that the step has
// run twice its length stops being sent to: what is left of the schedule
// counts as failed, and the run still ends on time.
func (e *serveEnv) runStep(clients []*http.Client, url string, arrivals []arrival, dur, slack time.Duration, ctl *traceCtl) stepOut {
	if ctl != nil {
		ctl.beginJob()
		defer ctl.endJob()
	}
	parts := make([][]sent, len(clients))
	type ticket struct {
		seq int
		due time.Time
		b   *body
	}
	// Unbuffered: with every connection busy the dispatcher blocks here, the
	// arrivals behind it go out late, and their latency says so.
	tickets := make(chan ticket)
	var wg sync.WaitGroup
	u0 := readUsage()
	start := time.Now()
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *http.Client) {
			defer wg.Done()
			track := "conn" + strconv.Itoa(ci)
			for t := range tickets {
				t0 := time.Now()
				code := post(c, url, t.b.data)
				t1 := time.Now()
				parts[ci] = append(parts[ci], sent{seq: t.seq, latency: t1.Sub(t.due), lateness: t0.Sub(t.due),
					roundtrip: t1.Sub(t0), code: code, rows: len(t.b.rows)})
				if ctl != nil {
					ctl.add("gen.wait", track, 0, t.due, t0)
					ctl.add("http.roundtrip", track, 0, t0, t1)
				}
			}
		}(ci, c)
	}
	for i, a := range arrivals {
		if time.Since(start) > 2*dur {
			break
		}
		due := start.Add(a.due)
		waitUntil(due, slack)
		tickets <- ticket{seq: i, due: due, b: a.body}
	}
	close(tickets)
	wg.Wait()
	out := stepOut{wall: time.Since(start), cpu: readUsage().cpu - u0.cpu}

	var all []sent
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	out.Sent = len(arrivals)
	out.Failed = len(arrivals) - len(all) // never sent: the step was abandoned
	var lat, lateness []float64
	for _, s := range all {
		ms := float64(s.latency) / 1e6
		lat = append(lat, ms)
		lateness = append(lateness, float64(s.lateness)/1e6)
		out.roundtrips = append(out.roundtrips, float64(s.roundtrip)/1e6)
		switch s.code {
		case http.StatusOK:
			out.Succeeded++
			out.rows += s.rows
			if s.latency <= latencyLimit {
				out.WithinLimit++
			}
		case http.StatusTooManyRequests:
			out.Shed++
		default:
			out.Failed++
		}
	}
	out.P50Ms, _ = Percentile(lat, 50)
	out.P99Ms, out.P99Supported = Percentile(lat, 99)
	out.LatenessP99Ms, _ = Percentile(lateness, 99)
	// A backlog is growing when the generator ends the step later than the
	// limit allows: requests are then queueing for a connection faster than
	// the server returns them.
	if n := len(lateness); n >= 10 {
		out.Backlog = Median(lateness[n-n/10:]) > float64(latencyLimit)/1e6
	}
	// Sub-windows in arrival order, each long enough for its own p99; the
	// median over up to eight of them is what steadies the reported tail.
	k := len(lat) / (minBeyond * 100)
	if k > 8 {
		k = 8
	}
	if k < 1 {
		k = 1
	}
	for i := 0; i < k; i++ {
		out.windows = append(out.windows, lat[i*len(lat)/k:(i+1)*len(lat)/k])
	}
	return out
}
