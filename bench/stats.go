// Package bench is the repository's one benchmark: seven workloads over the
// training and serving planes, end-to-end metrics measured with tracing off,
// and a separate traced run that attributes time to layers by timing calls
// into each package's public functions from this directory only. The command
// is bench/tsbench; README.md in this directory is the glossary.
package bench

import (
	"math"
	"sort"
)

// Summary is how every timing is reported: the median, the quartiles and the
// number of samples behind them.
type Summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// Summarize reduces samples to a Summary. The zero Summary stands for no
// samples.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	q1, med, q3 := Quartiles(xs)
	return Summary{Median: med, Q1: q1, Q3: q3, N: len(xs)}
}

// Median returns the middle value (mean of the two middle values for an even
// count); 0 for no samples.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the three cut points exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), because that
// is what judges this benchmark's spread. A single sample yields itself three
// times.
func Quartiles(xs []float64) (q1, med, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// Spread is the interquartile distance as a share of the median — the
// run-to-run noise figure compare weighs a bound against.
func (s Summary) Spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported.
const minBeyond = 10

// Percentile returns the p-th percentile (0 < p < 100, nearest rank) of xs.
// ok is false when fewer than ten samples lie beyond it: the value is still
// returned so callers can fall back knowingly, but it must not be printed as
// that percentile.
func Percentile(xs []float64, p float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := sorted(xs)
	n := len(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n-rank >= minBeyond
}

// tailLadder lists the percentiles a tail may be reported at, highest first.
var tailLadder = []float64{99, 95, 90, 75}

// Tail returns the highest percentile of the ladder that xs supports (at
// least ten samples beyond it) and its value. With too few samples for any
// rung it returns the maximum and p = 100, which callers label "max".
func Tail(xs []float64) (p, v float64) {
	for _, q := range tailLadder {
		if v, ok := Percentile(xs, q); ok {
			return q, v
		}
	}
	if len(xs) == 0 {
		return 100, 0
	}
	s := sorted(xs)
	return 100, s[len(s)-1]
}

// WindowedPercentile summarises each window's p-th percentile over the
// windows — steadier than one pooled percentile because a single stall moves
// one window, not the result. supported is false when any window had fewer
// than ten samples beyond p.
func WindowedPercentile(windows [][]float64, p float64) (s Summary, supported bool) {
	supported = len(windows) > 0
	per := make([]float64, 0, len(windows))
	for _, w := range windows {
		if len(w) == 0 {
			supported = false
			continue
		}
		v, ok := Percentile(w, p)
		if !ok {
			supported = false
		}
		per = append(per, v)
	}
	return Summarize(per), supported
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
