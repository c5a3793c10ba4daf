package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed region recorded by the benchmark around a call into a
// layer. Parent is 0 for a root. Req groups the spans of one request (or
// one in-process pass); Counts carries the counters the call returned.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"`
	Req    int64            `json:"req"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	reqs  int64
}

func newTracer() *tracer { return &tracer{t0: now()} }

// now reads the wall clock. It is the benchmark's only clock read: its
// readings are reported as timings and never reach a run's input, options
// or fingerprint.
func now() time.Time {
	return time.Now() //detlint:ignore wallclock benchmark measurement; readings are only reported
}

// ref names a live span: the request it belongs to and its id.
type ref struct {
	req int64
	id  int
}

// newReq allocates a request id.
func (t *tracer) newReq() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// begin opens a span under parent (the zero ref for a root).
func (t *tracer) begin(name string, parent ref) ref {
	if t == nil {
		return ref{}
	}
	ns := now().Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent.id, Req: parent.req, Name: name, Start: ns})
	return ref{req: parent.req, id: len(t.spans)}
}

// root opens a root span for a fresh request id.
func (t *tracer) root(name string) ref {
	return t.begin(name, ref{req: t.newReq()})
}

// end closes r, attaching counts (which may be nil).
func (t *tracer) end(r ref, counts map[string]int64) {
	if t == nil || r.id == 0 {
		return
	}
	ns := now().Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[r.id-1]
	s.End = ns
	s.Counts = counts
}

// attach sets the counts of a span already ended, so decoding them can
// happen outside the span.
func (t *tracer) attach(r ref, counts map[string]int64) {
	if t == nil || r.id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[r.id-1].Counts = counts
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(map[string]any{"spans": t.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

type ctxKey struct{}

// withRef carries a live span in a request context, so a layer boundary
// further down the call (a transport, a handler) can parent its span.
func withRef(ctx context.Context, r ref) context.Context {
	return context.WithValue(ctx, ctxKey{}, r)
}

func refFrom(ctx context.Context) (ref, bool) {
	r, ok := ctx.Value(ctxKey{}).(ref)
	return r, ok
}

// covered returns how much of [lo, hi) the intervals cover, counting
// overlapping intervals once.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	var clipped [][2]int64
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	for i, iv := range clipped {
		if i == 0 || iv[0] > curB {
			total += curB - curA
			curA, curB = iv[0], iv[1]
			continue
		}
		curB = max(curB, iv[1])
	}
	return total + curB - curA
}

// children indexes spans by parent id.
func children(spans []span) map[int][]*span {
	kids := make(map[int][]*span)
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	return kids
}

// selfTime is s's duration minus the part of it its children cover.
func selfTime(s *span, kids map[int][]*span) int64 {
	var ivs [][2]int64
	for _, c := range kids[s.ID] {
		ivs = append(ivs, [2]int64{c.Start, c.End})
	}
	return s.dur() - covered(s.Start, s.End, ivs)
}

// unattributedShare is the share of all root-span time that no child span
// covers: the part of the run the trace cannot assign to a layer.
func unattributedShare(spans []span) float64 {
	kids := children(spans)
	var total, self int64
	for i := range spans {
		s := &spans[i]
		if s.Parent == 0 {
			total += s.dur()
			self += selfTime(s, kids)
		}
	}
	if total == 0 {
		return 0
	}
	return float64(self) / float64(total)
}
