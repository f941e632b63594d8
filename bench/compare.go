package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// RunSeconds is how long one run measures unless told otherwise; it is the
// run_seconds of BENCHMARK.json.
const RunSeconds = 10

// Manifest renders BENCHMARK.json from the declarations, so the file the
// driver reads cannot drift from what the code emits (the test compares them).
func Manifest() ([]byte, error) {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []e2e      `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./bench/tsbench"},
		Paths:      []string{"bench"},
		RunSeconds: RunSeconds,
	}
	for _, w := range Workloads {
		m.Workloads = append(m.Workloads, workload{w.Name, w.Why})
	}
	for _, d := range EndToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range PerLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	data, err := json.MarshalIndent(m, "", "  ")
	return append(data, '\n'), err
}

// PrintResult writes every metric of one result by name with its unit; a
// traced result also shows, next to each layer metric, the end-to-end metric
// it is predicted to move.
func PrintResult(w io.Writer, r *Result) {
	decls := EndToEnd
	kind := "end-to-end, untraced"
	if r.Traced {
		decls, kind = PerLayer, "per-layer, traced"
	}
	fmt.Fprintf(w, "== %s  seed %d  %gs  (%s)  attempted %d  failed %d  correct %v\n",
		r.Workload, r.Seed, r.Seconds, kind, r.Attempted, r.Failed, r.Correct)
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	for _, d := range decls {
		m := r.Metrics[d.Name]
		detail := m.Note
		if m.Summary != nil {
			detail = fmt.Sprintf("q1 %.5g  q3 %.5g  n %d", m.Summary.Q1, m.Summary.Q3, m.Summary.N)
		}
		if r.Traced {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\t-> %s\n", d.Name, m.Value, d.Unit, detail, d.Moves)
		} else {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\tbound %g\t%s\n", d.Name, m.Value, d.Unit, d.Bound, detail)
		}
	}
	tw.Flush()
	for _, st := range r.Steps {
		fmt.Fprintf(w, "  rate %-3s %6.0f/s  sent %d  ok %d  shed %d  failed %d  within %v %d  p50 %.3f ms  p99 %.3f ms  gen lateness p99 %.3f ms  backlog growing %v\n",
			st.Name, st.RatePerS, st.Sent, st.Succeeded, st.Shed, st.Failed, latencyLimit, st.WithinLimit,
			st.P50Ms, st.P99Ms, st.LatenessP99Ms, st.Backlog)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// Verdicts of compare.
const (
	VerdictOK         = "ok"
	VerdictRegressed  = "regressed"
	VerdictUnresolved = "unresolved"
)

// Row is one workload x end-to-end metric line of a comparison.
type Row struct {
	Workload, Metric, Unit string
	A, B                   Summary
	// Worse is how much worse B's median is than A's, as a share of A's
	// (negative when B is better).
	Worse   float64
	Bound   float64
	Verdict string
}

// judge applies the benchmark's own rule: a spread wider than the bound
// resolves nothing; otherwise B regressed if its median is worse than A's by
// more than the bound.
func judge(d Decl, a, b Summary) (worse float64, verdict string) {
	if a.Median != 0 {
		worse = (b.Median - a.Median) / math.Abs(a.Median)
		if d.Better == "higher" {
			worse = -worse
		}
	}
	switch {
	case a.Spread() > d.Bound || b.Spread() > d.Bound:
		return worse, VerdictUnresolved
	case worse > d.Bound:
		return worse, VerdictRegressed
	}
	return worse, VerdictOK
}

// loadSet reads every untraced result in dir, grouped by workload and
// ordered by seed.
func loadSet(dir string) (map[string][]*Result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	set := make(map[string][]*Result)
	for _, p := range paths {
		if strings.HasSuffix(p, ".traced.json") || strings.HasSuffix(p, ".trace.json") {
			continue
		}
		r, err := ReadResult(p)
		if err != nil {
			return nil, err
		}
		if _, ok := WorkloadByName(r.Workload); !ok || r.Traced {
			continue
		}
		set[r.Workload] = append(set[r.Workload], r)
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("bench: no untraced results in %s", dir)
	}
	for _, rs := range set {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Seed < rs[j].Seed })
	}
	return set, nil
}

// Compare sets two directories of results side by side: one row per workload
// and end-to-end metric. It refuses inputs whose workloads, seeds or workload
// parameters differ — those would compare different experiments.
func Compare(dirA, dirB string) ([]Row, [2]Host, error) {
	var hosts [2]Host
	a, err := loadSet(dirA)
	if err != nil {
		return nil, hosts, err
	}
	b, err := loadSet(dirB)
	if err != nil {
		return nil, hosts, err
	}
	var rows []Row
	for _, w := range Workloads {
		ra, rb := a[w.Name], b[w.Name]
		if len(ra) == 0 && len(rb) == 0 {
			continue
		}
		if len(ra) != len(rb) {
			return nil, hosts, fmt.Errorf("bench: %s has %d runs in %s and %d in %s", w.Name, len(ra), dirA, len(rb), dirB)
		}
		for i := range ra {
			if ra[i].Seed != rb[i].Seed {
				return nil, hosts, fmt.Errorf("bench: %s seeds differ (%d vs %d)", w.Name, ra[i].Seed, rb[i].Seed)
			}
			if ra[i].ParamHash != rb[i].ParamHash || ra[i].Seconds != rb[i].Seconds {
				return nil, hosts, fmt.Errorf("bench: %s was run with different parameters (hash %s, %gs vs hash %s, %gs)",
					w.Name, ra[i].ParamHash, ra[i].Seconds, rb[i].ParamHash, rb[i].Seconds)
			}
		}
		hosts[0], hosts[1] = ra[0].Host, rb[0].Host
		for _, d := range EndToEnd {
			collect := func(rs []*Result) Summary {
				var xs []float64
				for _, r := range rs {
					xs = append(xs, r.Metrics[d.Name].Value)
				}
				return Summarize(xs)
			}
			row := Row{Workload: w.Name, Metric: d.Name, Unit: d.Unit, A: collect(ra), B: collect(rb), Bound: d.Bound}
			row.Worse, row.Verdict = judge(d, row.A, row.B)
			rows = append(rows, row)
		}
	}
	return rows, hosts, nil
}

// PrintComparison writes the comparison table and reports whether any row
// regressed.
func PrintComparison(w io.Writer, rows []Row, hosts [2]Host) (regressed bool) {
	for i, h := range hosts {
		fmt.Fprintf(w, "%c: %s, nproc %d, GOMAXPROCS %d, %s, commit %s\n", 'A'+i, h.CPUModel, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit)
	}
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3]\tB median [q1, q3]\tn\tB worse by\tbound\tverdict")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g [%.5g, %.5g]\t%.5g [%.5g, %.5g]\t%d\t%+.2f%%\t%.0f%%\t%s\n",
			r.Workload, r.Metric, r.Unit, r.A.Median, r.A.Q1, r.A.Q3, r.B.Median, r.B.Q1, r.B.Q3,
			r.A.N, 100*r.Worse, 100*r.Bound, r.Verdict)
		if r.Verdict == VerdictRegressed {
			regressed = true
		}
	}
	tw.Flush()
	return regressed
}

// Glossary writes the metric and workload tables of README.md as markdown,
// so the document is regenerated from the declarations rather than retyped.
func Glossary(w io.Writer) {
	fmt.Fprintln(w, "| workload | why it exists |\n|---|---|")
	for _, wl := range Workloads {
		fmt.Fprintf(w, "| `%s` | %s |\n", wl.Name, wl.Why)
	}
	fmt.Fprintln(w, "\n| end-to-end metric | unit | better | bound | source |\n|---|---|---|---|---|")
	for _, d := range EndToEnd {
		fmt.Fprintf(w, "| `%s` | %s | %s | %g | %s |\n", d.Name, d.Unit, d.Better, d.Bound, d.Source)
	}
	fmt.Fprintln(w, "\n| per-layer metric | unit | better | source call | should move |\n|---|---|---|---|---|")
	for _, d := range PerLayer {
		fmt.Fprintf(w, "| `%s` | %s | %s | %s | %s |\n", d.Name, d.Unit, d.Better, d.Source, d.Moves)
	}
}
