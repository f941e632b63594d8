package bench

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// SpanID names a recorded span; 0 is "no span" (a root's parent).
type SpanID int32

// Span is one timed interval at a layer boundary. Spans of one job or request
// share Job; Parent is the span that caused this one.
type Span struct {
	Name   string
	Track  string // the endpoint, client or driver the span ran on
	Parent SpanID
	Job    int64
	Start  time.Duration // since the recorder's epoch
	End    time.Duration
}

// Dur is the span's length.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Recorder keeps spans in memory until the run ends. A nil *Recorder is
// tracing off: every method is a no-op, so call sites need no branch and the
// untraced run pays one pointer check per boundary.
type Recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

// NewRecorder starts a recorder whose epoch is now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Begin opens a span that children will name as their parent; End closes it.
func (r *Recorder) Begin(name, track string, parent SpanID, job int64) SpanID {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans = append(r.spans, Span{Name: name, Track: track, Parent: parent, Job: job, Start: now, End: now})
	id := SpanID(len(r.spans))
	r.mu.Unlock()
	return id
}

// End closes a span opened by Begin.
func (r *Recorder) End(id SpanID) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// Add records a finished leaf span.
func (r *Recorder) Add(name, track string, parent SpanID, job int64, start, end time.Time) SpanID {
	if r == nil {
		return 0
	}
	s := Span{Name: name, Track: track, Parent: parent, Job: job, Start: start.Sub(r.epoch), End: end.Sub(r.epoch)}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	id := SpanID(len(r.spans))
	r.mu.Unlock()
	return id
}

// Spans returns a copy of everything recorded; index i holds SpanID i+1.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Total is the count and summed duration of the spans sharing a name.
type Total struct {
	Count int
	Dur   time.Duration
	Self  time.Duration // Dur minus what child spans cover
}

type interval struct{ lo, hi time.Duration }

// cover is the length of the union of the intervals.
func cover(iv []interval) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var total time.Duration
	var hi time.Duration
	started := false
	for _, x := range iv {
		if x.hi <= x.lo {
			continue
		}
		if !started || x.lo > hi {
			total += x.hi - x.lo
			hi = x.hi
			started = true
			continue
		}
		if x.hi > hi {
			total += x.hi - hi
			hi = x.hi
		}
	}
	return total
}

// Totals aggregates spans by name. A span's self time is its duration minus
// the part of its interval that its direct children cover (children are
// clipped to the parent and overlapping children count once).
func Totals(spans []Span) map[string]Total {
	children := make(map[SpanID][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := make(map[string]Total)
	for i, s := range spans {
		kids := children[SpanID(i+1)]
		for k := range kids {
			if kids[k].lo < s.Start {
				kids[k].lo = s.Start
			}
			if kids[k].hi > s.End {
				kids[k].hi = s.End
			}
		}
		t := out[s.Name]
		t.Count++
		t.Dur += s.Dur()
		t.Self += s.Dur() - cover(kids)
		out[s.Name] = t
	}
	return out
}

// Uncovered is the share of the root spans named root that no span accepted
// by active covers, whatever its parent: the wall time during which nothing
// the benchmark can see was running.
func Uncovered(spans []Span, root string, active func(Span) bool) float64 {
	var busy []interval
	for _, s := range spans {
		if s.Name != root && active(s) {
			busy = append(busy, interval{s.Start, s.End})
		}
	}
	var wall, seen time.Duration
	for _, s := range spans {
		if s.Name != root {
			continue
		}
		wall += s.Dur()
		var in []interval
		for _, b := range busy {
			if b.hi <= s.Start || b.lo >= s.End {
				continue
			}
			if b.lo < s.Start {
				b.lo = s.Start
			}
			if b.hi > s.End {
				b.hi = s.End
			}
			in = append(in, b)
		}
		seen += cover(in)
	}
	if wall <= 0 {
		return 0
	}
	return float64(wall-seen) / float64(wall)
}

// maxTraceEvents bounds the Chrome trace file; a serving run records a span
// per request and the viewer chokes long before the benchmark does.
const maxTraceEvents = 200000

// WriteChromeTrace writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto). Each track becomes a thread; args carry the
// span id, its parent and the job id. It reports how many spans were left out
// by the size cap.
func WriteChromeTrace(w io.Writer, spans []Span) (dropped int, err error) {
	if len(spans) > maxTraceEvents {
		dropped = len(spans) - maxTraceEvents
		spans = spans[:maxTraceEvents]
	}
	bw := bufio.NewWriter(w)
	tids := make(map[string]int)
	fmt.Fprint(bw, `{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	comma := func() {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		bw.WriteByte('\n')
	}
	for i, s := range spans {
		tid, ok := tids[s.Track]
		if !ok {
			tid = len(tids) + 1
			tids[s.Track] = tid
			comma()
			fmt.Fprintf(bw, `{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`, tid, s.Track)
		}
		comma()
		fmt.Fprintf(bw, `{"name":%q,"cat":"tsbench","ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"job":%d}}`,
			s.Name, tid, float64(s.Start)/1e3, float64(s.Dur())/1e3, i+1, s.Parent, s.Job)
	}
	fmt.Fprint(bw, "\n]}\n")
	return dropped, bw.Flush()
}
