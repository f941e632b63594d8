package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := Quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(med, 5.5) || !near(q3, 8.25) {
		t.Fatalf("quartiles of 1..10 = %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
	q1, med, q3 = Quartiles([]float64{1, 2, 3, 4})
	if !near(q1, 1.25) || !near(med, 2.5) || !near(q3, 3.75) {
		t.Fatalf("quartiles of 1..4 = %v %v %v", q1, med, q3)
	}
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v", m)
	}
	if m := Median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || !near(s.Spread(), (3.75-1.25)/2.5) {
		t.Fatalf("summary %+v spread %v", s, s.Spread())
	}
	if (Summary{}).Spread() != 0 || Median(nil) != 0 {
		t.Fatal("empty input must read 0")
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	if v, ok := Percentile(seq(1000), 99); !ok || v != 990 {
		t.Fatalf("p99 of 1000 = %v, %v; want 990 with 10 beyond", v, ok)
	}
	if _, ok := Percentile(seq(999), 99); ok {
		t.Fatal("p99 of 999 samples has only 9 beyond it and must not be supported")
	}
	if p, v := Tail(seq(150)); p != 90 || v != 135 {
		t.Fatalf("tail of 150 samples = p%v %v; want the highest supported rung, p90", p, v)
	}
	if p, v := Tail(seq(7)); p != 100 || v != 7 {
		t.Fatalf("tail of 7 samples = p%v %v; want max", p, v)
	}
}

func TestWindowedPercentileIsMedianOverWindows(t *testing.T) {
	a, b, c := seq(1000), seq(2000), seq(3000)
	s, ok := WindowedPercentile([][]float64{a, b, c}, 99)
	if !ok || s.N != 3 || s.Median != 1980 {
		t.Fatalf("windowed p99 = %+v, %v", s, ok)
	}
	if _, ok := WindowedPercentile([][]float64{a, seq(50)}, 99); ok {
		t.Fatal("a window too short for p99 must make the result unsupported")
	}
}

func at(ms int) time.Time { return time.Unix(1000, 0).Add(time.Duration(ms) * time.Millisecond) }

func TestSpanParentLinksAndSelfTime(t *testing.T) {
	r := &Recorder{epoch: at(0)}
	root := r.Add("job", "driver", 0, 7, at(0), at(100))
	h := r.Add("handle", "master", root, 7, at(10), at(60))
	r.Add("send", "master", h, 7, at(20), at(30))
	r.Add("send", "master", h, 7, at(25), at(40))  // overlaps the first
	r.Add("send", "master", h, 7, at(55), at(70))  // runs past its parent
	r.Add("handle", "w0", root, 7, at(50), at(90)) // overlaps the other handle
	spans := r.Spans()
	if len(spans) != 6 || spans[1].Parent != root || spans[2].Parent != h || spans[2].Job != 7 {
		t.Fatalf("parent links wrong: %+v", spans)
	}
	tot := Totals(spans)
	// handle "master": 50 ms long; children cover [20,40] and [55,60] = 25 ms.
	// handle "w0": 40 ms, no children. Self = 25 + 40.
	if got := tot["handle"]; got.Count != 2 || got.Dur != 90*time.Millisecond || got.Self != 65*time.Millisecond {
		t.Fatalf("handle totals %+v", got)
	}
	// job: 100 ms; children cover [10,90] = 80 ms.
	if got := tot["job"].Self; got != 20*time.Millisecond {
		t.Fatalf("job self = %v, want 20ms", got)
	}
	if got := Uncovered(spans, "job", func(Span) bool { return true }); !near(got, 0.2) {
		t.Fatalf("uncovered = %v, want 0.2", got)
	}
	if got := Uncovered(spans, "job", func(s Span) bool { return s.Name == "send" }); !near(got, 0.65) {
		t.Fatalf("uncovered by sends = %v, want 0.65", got)
	}

	var nilRec *Recorder
	if nilRec.Begin("x", "y", 0, 0) != 0 || nilRec.Add("x", "y", 0, 0, at(0), at(1)) != 0 || nilRec.Spans() != nil {
		t.Fatal("a nil recorder must be tracing off")
	}
	nilRec.End(3)

	live := NewRecorder()
	id := live.Begin("job", "driver", 0, 1)
	live.End(id)
	if s := live.Spans()[0]; s.End < s.Start {
		t.Fatalf("Begin/End produced %+v", s)
	}

	var buf bytes.Buffer
	if _, err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != len(spans)+3 { // + one thread_name per track
		t.Fatalf("%d trace events for %d spans on 3 tracks", len(doc.TraceEvents), len(spans))
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestManifestIsBenchmarkJSON(t *testing.T) {
	want, err := Manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json differs from the declarations; regenerate it with: go run ./bench/tsbench manifest > BENCHMARK.json")
	}
	if len(Workloads) < 2 || len(Workloads) > 8 || len(EndToEnd) > 16 || len(PerLayer) > 128 {
		t.Fatalf("%d workloads, %d end-to-end, %d per-layer metrics: outside the contract", len(Workloads), len(EndToEnd), len(PerLayer))
	}
	seen := map[string]bool{}
	hasSetup := false
	for _, d := range append(append([]Decl(nil), EndToEnd...), PerLayer...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or used twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if d.Source == "" {
			t.Errorf("%s has no source call", d.Name)
		}
	}
	for _, d := range EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("setup_s is missing")
	}
	for _, d := range PerLayer {
		if d.Moves == "" {
			t.Errorf("%s does not say which end-to-end metric it should move", d.Name)
		}
	}
	for _, w := range Workloads {
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for name := range seen {
		if !bytes.Contains(readme, []byte("`"+name+"`")) {
			t.Errorf("README.md glossary lacks %s", name)
		}
	}
}

// TestEveryWorkloadEmitsDeclaredMetrics runs all seven workloads, untraced and
// traced, at -tiny sizes. It asserts names and correctness, never a timing.
func TestEveryWorkloadEmitsDeclaredMetrics(t *testing.T) {
	dir := t.TempDir()
	for _, w := range Workloads {
		for _, traced := range []bool{false, true} {
			res, err := Run(w.Name, Options{Seed: 3, Seconds: 0.2, Trace: traced, Tiny: true, OutDir: dir})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d notes=%v",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, res.Notes)
			}
			decls := EndToEnd
			if traced {
				decls = PerLayer
			}
			var want, got []string
			for _, d := range decls {
				want = append(want, d.Name)
				if m := res.Metrics[d.Name]; m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s = %+v", w.Name, d.Name, m)
				}
			}
			line, err := res.DriverLine()
			if err != nil {
				t.Fatal(err)
			}
			var parsed struct {
				Correct   *bool                      `json:"correct"`
				Attempted *int                       `json:"attempted"`
				Failed    *int                       `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal(line, &parsed); err != nil || parsed.Correct == nil || parsed.Attempted == nil || parsed.Failed == nil {
				t.Fatalf("%s: driver line %s: %v", w.Name, line, err)
			}
			for name := range parsed.Metrics {
				got = append(got, name)
			}
			sort.Strings(want)
			sort.Strings(got)
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s traced=%v emits\n%v\nwant exactly\n%v", w.Name, traced, got, want)
			}
			if !traced {
				for _, d := range EndToEnd {
					if res.Metrics[d.Name].Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", w.Name, d.Name)
					}
				}
			}
			if res.Claim != nil || res.Host.GoVersion == "" || res.Host.NProc == 0 || res.ParamHash == "" {
				t.Errorf("%s: claim %v host %+v hash %q", w.Name, res.Claim, res.Host, res.ParamHash)
			}
			if _, err := os.Stat(filepath.Join(dir, FileName(w.Name, 3, traced))); err != nil {
				t.Error(err)
			}
		}
	}

	// The same directory against itself: every row ok, nothing regressed.
	rows, _, err := Compare(dir, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Workloads)*len(EndToEnd) {
		t.Fatalf("%d comparison rows", len(rows))
	}
	var out bytes.Buffer
	if PrintComparison(&out, rows, [2]Host{}) {
		t.Fatalf("a directory regressed against itself:\n%s", out.String())
	}
}

func writeResult(t *testing.T, dir string, r *Result) {
	t.Helper()
	r.ParamHash = hashParams(r.Params)
	if err := r.write(dir, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompareVerdictsAndRefusals(t *testing.T) {
	mk := func(seed int64, workPerS, typical float64) *Result {
		r := &Result{Workload: "serve_single", Seed: seed, Seconds: 10, Params: map[string]any{"rows": 1}, Metrics: map[string]Metric{}}
		for _, d := range EndToEnd {
			r.Metrics[d.Name] = Metric{Value: 1, Unit: d.Unit}
		}
		r.Metrics["work_per_s"] = Metric{Value: workPerS}
		r.Metrics["typical_ms"] = Metric{Value: typical}
		return r
	}
	a, b := t.TempDir(), t.TempDir()
	for i, v := range []float64{100, 101, 102, 103} {
		writeResult(t, a, mk(int64(i), v, 1+float64(i)))     // latency spread far wider than its bound
		writeResult(t, b, mk(int64(i), v*0.6, 1+float64(i))) // throughput 40% lower
	}
	rows, _, err := Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	verdict := map[string]string{}
	for _, r := range rows {
		verdict[r.Metric] = r.Verdict
	}
	if verdict["work_per_s"] != VerdictRegressed || verdict["typical_ms"] != VerdictUnresolved || verdict["setup_s"] != VerdictOK {
		t.Fatalf("verdicts %v", verdict)
	}
	if !PrintComparison(new(bytes.Buffer), rows, [2]Host{}) {
		t.Fatal("a regressed row must make compare fail")
	}

	c := t.TempDir()
	for i := range 4 {
		writeResult(t, c, mk(int64(i+1), 100, 1)) // other seeds
	}
	if _, _, err := Compare(a, c); err == nil || !strings.Contains(err.Error(), "seeds differ") {
		t.Fatalf("compare accepted different seeds: %v", err)
	}
	d := t.TempDir()
	for i := range 4 {
		r := mk(int64(i), 100, 1)
		r.Params = map[string]any{"rows": 2}
		writeResult(t, d, r)
	}
	if _, _, err := Compare(a, d); err == nil || !strings.Contains(err.Error(), "different parameters") {
		t.Fatalf("compare accepted different workload parameters: %v", err)
	}
}
