package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"wincm/internal/stm"
)

// now is the benchmark's clock: monotonic nanoseconds, one vDSO read.
func now() int64 { return stm.Now() }

// span is one timed call into a layer. Spans of one request share req;
// parent indexes the enclosing span in the same worker's buffer (-1 for
// a root). Children of one span never overlap, so a span's self time is
// its duration minus its children's. inside counts the tracer's clock
// reads taken strictly between start and end, whose cost the span's
// duration includes (see aggregate).
type span struct {
	name       string
	start, end int64
	parent     int32
	inside     int32
	req        int64
}

// spanBufCap bounds one worker's spans per ladder step; once full, the
// worker stops sampling and counts what it dropped.
const spanBufCap = 1 << 16

// sampledPerStep is how many requests each worker samples per ladder
// step, spread evenly over the step's duration.
const sampledPerStep = 4096

// tracer is one worker's span recorder for one ladder step. It is
// single-goroutine: the worker and the contention-manager decorator
// calls made on the worker's own STM thread.
type tracer struct {
	step, worker int
	spans        []span
	dropped      int
	// interval and next drive time-based sampling: a request starting at
	// or after next is traced, and next moves on by interval.
	interval, next int64
	// cur is the open request span, or -1 when the current request is
	// not sampled.
	cur int32
	// reads counts the clock reads made through now; curReads is its
	// value just after the open request span's start read.
	reads, curReads int64
}

// now reads the clock for a span boundary and counts the read.
func (t *tracer) now() int64 {
	t.reads++
	return now()
}

func newTracer(step, worker int, dur int64) *tracer {
	// Write the whole buffer once, so no page of it faults in while a
	// sampled request is being timed.
	spans := make([]span, spanBufCap)
	for i := range spans {
		spans[i].parent = -1
	}
	return &tracer{
		step: step, worker: worker,
		spans:    spans[:0],
		interval: max(dur/sampledPerStep, 1),
		cur:      -1,
	}
}

// begin decides whether the request starting now is sampled; if it is,
// it opens the request's root span and returns true.
func (t *tracer) begin(name string, req int64) bool {
	ts := t.now()
	if ts < t.next || len(t.spans) >= spanBufCap-64 {
		if ts >= t.next {
			t.dropped++
		}
		return false
	}
	t.next = ts + t.interval
	t.cur = int32(len(t.spans))
	t.curReads = t.reads
	t.spans = append(t.spans, span{name: name, start: ts, parent: -1, req: req})
	return true
}

// end closes the open request span.
func (t *tracer) end() {
	s := &t.spans[t.cur]
	s.inside = int32(t.reads - t.curReads)
	s.end = t.now()
	t.cur = -1
}

// child records a finished child span of the open request span, timed
// by two consecutive reads of t.now.
func (t *tracer) child(name string, start, end int64) int32 {
	return t.add(name, start, end, t.cur, 0)
}

// add records a finished span under parent (ignored when parent < 0,
// i.e. the request is not sampled) and returns its index.
func (t *tracer) add(name string, start, end int64, parent, inside int32) int32 {
	if parent < 0 {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: start, end: end, parent: parent, inside: inside, req: t.spans[parent].req})
	return int32(len(t.spans) - 1)
}

// clockCost estimates the cost of one clock read in ns: the least mean
// over a few rounds of back-to-back reads.
func clockCost() float64 {
	const rounds, reads = 5, 100_000
	best := 0.0
	for r := 0; r < rounds; r++ {
		t0 := now()
		for i := 0; i < reads-1; i++ {
			now()
		}
		c := float64(now()-t0) / reads
		if r == 0 || c < best {
			best = c
		}
	}
	return best
}

// agg sums the spans of one name.
type agg struct {
	n         int
	dur, self float64
}

func (a agg) meanDur() float64 {
	if a.n == 0 {
		return 0
	}
	return a.dur / float64(a.n)
}

// aggregate folds every span of the tracers into per-name totals,
// deriving each span's self time from its children. A measured span
// holds about one clock read of its own (half of each boundary read)
// plus every read taken inside it; with clock the cost of one read,
// those are taken off, so a layer is not charged for the tracing of the
// layers it calls.
func aggregate(ts []*tracer, clock float64) map[string]agg {
	out := map[string]agg{}
	for _, t := range ts {
		dur := make([]float64, len(t.spans))
		self := make([]float64, len(t.spans))
		for i, s := range t.spans {
			dur[i] = float64(s.end-s.start) - clock*float64(1+s.inside)
			self[i] += dur[i]
			if s.parent >= 0 {
				self[s.parent] -= dur[i]
			}
		}
		for i, s := range t.spans {
			a := out[s.name]
			a.n++
			a.dur += dur[i]
			a.self += self[i]
			out[s.name] = a
		}
	}
	return out
}

// prefixSum sums the aggregates whose name starts with prefix.
func prefixSum(m map[string]agg, prefix string) agg {
	var s agg
	for name, a := range m {
		if len(name) > len(prefix) && name[:len(prefix)] == prefix {
			s.n += a.n
			s.dur += a.dur
			s.self += a.self
		}
	}
	return s
}

// exportSpans bounds the spans one tracer contributes to the trace file:
// the statistics use every sampled request, the file only the first
// ones, so a run's output stays around a megabyte.
const exportSpans = 2048

// writeChromeTrace writes the first spans of every tracer as Chrome
// trace-event JSON (complete "X" events, microsecond timestamps),
// loadable in Perfetto: one process per ladder step, one thread per
// worker. The cut falls on a request boundary.
func writeChromeTrace(path string, steps []string, ts []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	var base int64 = -1
	for _, t := range ts {
		for _, s := range t.spans {
			if base < 0 || s.start < base {
				base = s.start
			}
		}
	}
	w.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	sep := func() {
		if !first {
			w.WriteByte(',')
		}
		first = false
		w.WriteByte('\n')
	}
	for i, name := range steps {
		sep()
		fmt.Fprintf(w, `{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%q}}`, i, name)
	}
	sorted := append([]*tracer(nil), ts...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].step != sorted[j].step {
			return sorted[i].step < sorted[j].step
		}
		return sorted[i].worker < sorted[j].worker
	})
	var buf []byte
	for _, t := range sorted {
		for i, s := range t.spans {
			if i >= exportSpans && s.parent < 0 {
				break
			}
			sep()
			buf = append(buf[:0], `{"name":"`...)
			buf = append(buf, s.name...)
			buf = append(buf, `","ph":"X","ts":`...)
			buf = strconv.AppendFloat(buf, float64(s.start-base)/1e3, 'f', 3, 64)
			buf = append(buf, `,"dur":`...)
			buf = strconv.AppendFloat(buf, float64(s.end-s.start)/1e3, 'f', 3, 64)
			buf = append(buf, `,"pid":`...)
			buf = strconv.AppendInt(buf, int64(t.step), 10)
			buf = append(buf, `,"tid":`...)
			buf = strconv.AppendInt(buf, int64(t.worker), 10)
			buf = append(buf, `,"args":{"req":`...)
			buf = strconv.AppendInt(buf, s.req, 10)
			buf = append(buf, `,"parent":`...)
			buf = strconv.AppendInt(buf, int64(s.parent), 10)
			buf = append(buf, "}}"...)
			w.Write(buf)
		}
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
