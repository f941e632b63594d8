package bench

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// Metric is one reported number. Summary is present when the value was taken
// over repeated samples (see setSteady for which quartile it is); Note says what a fallback value really is (a
// tail reported as max, a layer the workload does not exercise).
type Metric struct {
	Value   float64  `json:"value"`
	Unit    string   `json:"unit"`
	Summary *Summary `json:"summary,omitempty"`
	Note    string   `json:"note,omitempty"`
}

// Host describes where a result was taken; compare prints both sides' hosts
// so a cross-host comparison is at least visible.
type Host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	OSArch     string `json:"os_arch"`
}

// RateStep is the open-loop generator's account of one fixed rate.
type RateStep struct {
	Name          string  `json:"name"` // lo, mid, hi
	RatePerS      float64 `json:"rate_per_s"`
	Sent          int     `json:"sent"`
	Succeeded     int     `json:"succeeded"`
	Shed          int     `json:"shed"`
	Failed        int     `json:"failed"`
	WithinLimit   int     `json:"within_limit"`
	P50Ms         float64 `json:"p50_ms"`
	P99Ms         float64 `json:"p99_ms"`
	P99Supported  bool    `json:"p99_supported"`
	LatenessP99Ms float64 `json:"gen_lateness_p99_ms"`
	Backlog       bool    `json:"backlog_growing"`
}

// Result is the one schema every workload writes, traced or not.
type Result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Tiny      bool              `json:"tiny,omitempty"`
	Params    map[string]any    `json:"params"`
	ParamHash string            `json:"param_hash"`
	Host      Host              `json:"host"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	Steps     []RateStep        `json:"rate_steps,omitempty"`
	Notes     []string          `json:"notes,omitempty"`
	// Claim is always null: this benchmark defines the yardstick and claims
	// no gain with it.
	Claim *string `json:"claim"`
}

// Options are one run's arguments.
type Options struct {
	Seed    int64
	Seconds float64
	Trace   bool
	// Tiny shrinks every size and repeat count so the whole suite runs in
	// seconds. It exists for the tests, which assert names, never timings.
	Tiny bool
	// OutDir, when set, receives <workload>.s<seed>.json (.traced.json for a
	// traced run) and, for a traced run, <workload>.s<seed>.trace.json in
	// Chrome trace-event format.
	OutDir string
}

// Run executes one workload in this process.
func Run(name string, o Options) (*Result, error) {
	w, ok := WorkloadByName(name)
	if !ok {
		return nil, fmt.Errorf("bench: unknown workload %q", name)
	}
	if o.Seconds <= 0 {
		return nil, fmt.Errorf("bench: seconds must be positive")
	}
	res := &Result{
		Workload: name, Seed: o.Seed, Seconds: o.Seconds, Traced: o.Trace, Tiny: o.Tiny,
		Host: hostInfo(), Metrics: make(map[string]Metric),
	}
	var spans []Span
	var err error
	if w.Family == FamilyTrain {
		spans, err = runTrain(name, o, res)
	} else {
		spans, err = runServe(name, o, res)
	}
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", name, err)
	}
	res.ParamHash = hashParams(res.Params)
	res.Correct = res.Failed == 0
	decls := EndToEnd
	if o.Trace {
		decls = PerLayer
	}
	// Every declared metric is present even where the workload has nothing
	// to say about that layer, and nothing undeclared leaks out.
	for _, d := range decls {
		m, ok := res.Metrics[d.Name]
		if !ok {
			m.Note = "layer not exercised by this workload"
		}
		m.Unit = d.Unit
		res.Metrics[d.Name] = m
	}
	for name := range res.Metrics {
		if !declared(decls, name) {
			return nil, fmt.Errorf("bench: %s emitted undeclared metric %q", res.Workload, name)
		}
	}
	if o.OutDir != "" {
		if err := res.write(o.OutDir, spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func declared(decls []Decl, name string) bool {
	for _, d := range decls {
		if d.Name == name {
			return true
		}
	}
	return false
}

// set stores a metric by declared name; the unit is filled in by Run.
func (r *Result) set(name string, v float64) { r.Metrics[name] = Metric{Value: v} }

// setMedian stores the median of repeated samples with its quartiles and count.
func (r *Result) setMedian(name string, s Summary) {
	r.Metrics[name] = Metric{Value: s.Median, Summary: &s}
}

// setSteady stores an end-to-end metric sampled over a run's jobs or windows
// as the quartile on its favourable side — the first for a metric that is
// better lower, the third for one better higher — and keeps the whole summary
// beside it. On a shared host interference only ever slows a window down, by
// ten percent and more for seconds at a time, so the favourable quartile says
// what the system does when left alone and repeats from run to run; the median
// over windows does not. A real slowdown moves every window and so moves this.
func (r *Result) setSteady(name string, s Summary) {
	v := s.Q1
	for _, d := range EndToEnd {
		if d.Name == name && d.Better == "higher" {
			v = s.Q3
		}
	}
	r.Metrics[name] = Metric{Value: v, Summary: &s}
}

func (r *Result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// FileName is where a result lives inside an output directory: one file per
// workload, seed and kind of run, so a directory can hold a set of repeats.
func FileName(workload string, seed int64, traced bool) string {
	base := fmt.Sprintf("%s.s%d", workload, seed)
	if traced {
		return base + ".traced.json"
	}
	return base + ".json"
}

func (r *Result) write(dir string, spans []Span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, FileName(r.Workload, r.Seed, r.Traced)), append(data, '\n'), 0o644); err != nil {
		return err
	}
	if !r.Traced {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s.s%d.trace.json", r.Workload, r.Seed)))
	if err != nil {
		return err
	}
	if _, err := WriteChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadResult loads a result file.
func ReadResult(path string) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &r, nil
}

// DriverLine is the one-line JSON object the benchmark contract wants as the
// last line of standard output.
func (r *Result) DriverLine() ([]byte, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]metric, len(r.Metrics))}
	for name, m := range r.Metrics {
		out.Metrics[name] = metric{m.Value, m.Unit}
	}
	return json.Marshal(out)
}

// hashParams fingerprints a workload's sizes, so compare can refuse to set
// results of different workload definitions side by side.
func hashParams(p map[string]any) string {
	data, err := json.Marshal(p) // map keys marshal sorted
	if err != nil {
		return "unhashable"
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:6])
}

func hostInfo() Host {
	h := Host{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH,
		CPUModel: "unknown", Commit: "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					h.Commit += "+dirty"
				}
			}
		}
	}
	return h
}

// usage is a getrusage reading of this process.
type usage struct {
	cpu    time.Duration
	maxRSS float64 // MB
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	// Linux reports Maxrss in KiB.
	return usage{cpu: tv(ru.Utime) + tv(ru.Stime), maxRSS: float64(ru.Maxrss) / 1024}
}

// medianSetup runs a workload's full set-up at least three times (more while
// set-ups are cheap, up to about two seconds in all), closing all but the
// last, and reports the median wall; repeating is what makes setup_s steady
// enough to carry a bound.
func medianSetup[T any](tiny bool, setUp func() (T, error), tearDown func(T)) (T, Summary, error) {
	minRepeats, maxRepeats, budget := 3, 15, 2*time.Second
	if tiny {
		minRepeats, maxRepeats = 1, 1
	}
	var walls []float64
	var last T
	start := time.Now()
	for {
		t0 := time.Now()
		env, err := setUp()
		if err != nil {
			return last, Summary{}, err
		}
		walls = append(walls, time.Since(t0).Seconds())
		n := len(walls)
		if n >= maxRepeats || (n >= minRepeats && time.Since(start) > budget) {
			return env, Summarize(walls), nil
		}
		tearDown(env)
		// Collect the discarded set-up now, so that the next one starts from
		// the same heap and peak_rss_mb does not depend on when the collector
		// happened to run.
		runtime.GC()
	}
}
