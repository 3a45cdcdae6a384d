package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Start and End are
// offsets from the tracer's epoch; Parent is 0 for a top-level span.
// Spans of one request or grid point share Req.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Req    int64         `json:"req,omitempty"`
	Name   string        `json:"name"`
	Attr   string        `json:"attr,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; they are written out once the workload
// ends, so recording costs an append under a mutex and nothing else.
// A nil *tracer records nothing, which is how untraced runs call the
// same code.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span; pass the result to end once the call returns.
func (t *tracer) begin(name string, parent, req int64) span {
	if t == nil {
		return span{}
	}
	return span{ID: t.ids.Add(1), Parent: parent, Req: req, Name: name, Start: time.Since(t.epoch)}
}

// end closes and records s.
func (t *tracer) end(s span) span {
	if t == nil {
		return s
	}
	s.End = time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// now is the current offset from the epoch.
func (t *tracer) now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch)
}

// snapshot returns the spans recorded so far, ordered by start.
func (t *tracer) snapshot() []span { return t.since(0) }

// mark is the number of spans recorded so far.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// since returns the spans recorded after mark m, ordered by start.
// Spans are recorded when they end, so every span that starts after the
// mark was taken is among them.
func (t *tracer) since(m int) spanQuery {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]span(nil), t.spans[m:]...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// writeTo writes every span as one JSON line.
func (t *tracer) writeTo(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// interval is a half-open time range.
type interval struct{ lo, hi time.Duration }

// unionLen is the total length covered by the intervals, each clipped
// to [lo, hi): overlapping parts count once.
func unionLen(ivs []interval, lo, hi time.Duration) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total time.Duration
	var cur interval
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			cur, open = iv, true
		case iv.lo <= cur.hi:
			cur.hi = max(cur.hi, iv.hi)
		default:
			total += cur.hi - cur.lo
			cur = iv
		}
	}
	if open {
		total += cur.hi - cur.lo
	}
	return total
}

// selfTimes maps each span id to its self time: its duration minus the
// part of its interval that its children cover, taken as a union so
// children running at once on two goroutines are not counted twice.
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - unionLen(children[s.ID], s.Start, s.End)
	}
	return out
}

// coverage is the share of [lo, hi) that top-level spans cover.
func coverage(spans []span, lo, hi time.Duration) float64 {
	var top []interval
	for _, s := range spans {
		if s.Parent == 0 {
			top = append(top, interval{s.Start, s.End})
		}
	}
	if hi <= lo {
		return 0
	}
	return float64(unionLen(top, lo, hi)) / float64(hi-lo)
}

// spanQuery filters recorded spans by name and attribute.
type spanQuery []span

func (q spanQuery) named(name string) spanQuery {
	var out spanQuery
	for _, s := range q {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func (q spanQuery) attr(a string) spanQuery {
	var out spanQuery
	for _, s := range q {
		if s.Attr == a {
			out = append(out, s)
		}
	}
	return out
}

// within keeps the spans that start inside [lo, hi).
func (q spanQuery) within(lo, hi time.Duration) spanQuery {
	var out spanQuery
	for _, s := range q {
		if s.Start >= lo && s.Start < hi {
			out = append(out, s)
		}
	}
	return out
}

func (q spanQuery) durs() []time.Duration {
	out := make([]time.Duration, len(q))
	for i, s := range q {
		out[i] = s.dur()
	}
	return out
}

// total is the summed duration in seconds.
func (q spanQuery) total() float64 { return sum(durations(q.durs(), time.Second)) }

// selfTotal sums the self times of the spans in seconds.
func (q spanQuery) selfTotal(self map[int64]time.Duration) float64 {
	var t time.Duration
	for _, s := range q {
		t += self[s.ID]
	}
	return t.Seconds()
}
