package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval around a call into a layer. Spans of one
// serve-zipf request share Req; Parent is -1 for a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: begin/end record nothing, so the measured code paths are
// the same in both modes apart from the recording itself.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (-1 when untraced).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return id
}

// end closes the span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// timed runs f inside a span and returns its wall time, which callers use
// as the measurement in both modes.
func (t *tracer) timed(name string, parent int, f func()) time.Duration {
	id := t.begin(name, parent, 0)
	start := time.Now()
	f()
	d := time.Since(start)
	t.end(id)
	return d
}

// snapshot returns the closed spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span name's summed self time in seconds: a
// span's duration minus the part of it its child spans cover.
func selfTimes(spans []span) map[string]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		covered := unionNs(children[s.ID], s.Start, s.End)
		out[s.Name] += float64(s.End-s.Start-covered) / 1e9
	}
	return out
}

// layerSelfTimes sums self times by layer, the span name up to its first
// dot ("reorder.RABBIT++" counts toward "reorder"); the bench.* roots
// keep their full names, so their self time is the time no layer span
// covered.
func layerSelfTimes(spans []span) map[string]float64 {
	out := map[string]float64{}
	for name, v := range selfTimes(spans) {
		layer, _, _ := strings.Cut(name, ".")
		if layer == "bench" {
			layer = name
		}
		out[layer] += v
	}
	return out
}

// coverage returns the share of the root span's interval that its child
// spans cover: how much of the traced wall time named layer spans explain.
func coverage(spans []span, root int) float64 {
	var r span
	var kids []span
	for _, s := range spans {
		if s.ID == root {
			r = s
		}
		if s.Parent == root {
			kids = append(kids, s)
		}
	}
	if r.End <= r.Start {
		return 0
	}
	return float64(unionNs(kids, r.Start, r.End)) / float64(r.End-r.Start)
}

// unionNs returns the length of the union of the spans' intervals clipped
// to [lo, hi].
func unionNs(spans []span, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	curA, curB = -1, -1
	for _, v := range ivs {
		if v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	return total + curB - curA
}

// writeOut writes the spans as JSON lines under .bench_build/spans and
// returns the file's path.
func (t *tracer) writeOut(workload string, seed uint64) (string, error) {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// tracedPhase runs a workload's measured phase. Untraced it runs once.
// Traced, it runs once untraced as the overhead baseline and then again
// inside a root span; the per-layer metrics come from the traced
// repetition, together with the tracing overhead (traced minus untraced
// wall time) and the share of the traced wall time named spans cover.
func tracedPhase[T any](b *bench, measure func(parent int) (T, error), wall func(T) time.Duration) (T, error) {
	if b.tr == nil {
		return measure(-1)
	}
	tr := b.tr
	b.tr = nil
	base, err := measure(-1)
	b.tr = tr
	if err != nil {
		return base, err
	}
	root := tr.begin("bench.traced", -1, 0)
	out, err := measure(root)
	tr.end(root)
	if err != nil {
		return out, err
	}
	b.layer["bench.trace_overhead_s"] = (wall(out) - wall(base)).Seconds()
	b.layer["bench.span_coverage"] = coverage(tr.snapshot(), root)
	return out, nil
}

// reorderMetric names a technique's per-nnz cost metric; '+' is spelled
// "p" (RABBIT++ → RABBITpp) because metric names allow no '+'.
func reorderMetric(tech string) string {
	return "reorder." + strings.ReplaceAll(tech, "+", "p") + ".ns_per_nnz"
}
