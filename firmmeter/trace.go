package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"firmres"
)

// layerOf maps the pipeline's span names (and, for serve, its stage names)
// to the layer the per-layer metrics report them under. A span whose name
// is not listed belongs to its parent's layer.
var layerOf = map[string]string{
	"image":                "pipeline",
	"pinpoint-executables": "pinpoint",
	"candidate":            "pinpoint",
	"strip-recover":        "strip",
	"identify-fields":      "taint",
	"taint-site":           "taint",
	"mft-simplify":         "taint",
	"recover-semantics":    "semantics",
	"classify":             "semantics",
	"concatenate-fields":   "concat",
	"build-message":        "concat",
	"check-forms":          "formcheck",
	"check-form":           "formcheck",
	"lint-passes":          "lint",
	"lint-fn":              "lint",
	"probe-replay":         "probe",
	"probe":                "probe",
}

// span is one recorded span: a program span delivered through
// firmres.WithObserver, or one of the benchmark's own spans around a
// public call. Spans of one request share req.
type span struct {
	Req    string    `json:"req"`
	ID     int64     `json:"id"`
	Parent int64     `json:"parent"`
	Name   string    `json:"name"`
	Layer  string    `json:"layer,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) iv() interval { return interval{s.Start, s.End} }

// maxKeptSpans caps the program spans written to the trace file (about
// 10 MB); the aggregates cover every span regardless, and the benchmark's
// own spans are always kept.
const maxKeptSpans = 50000

// tracer keeps the spans of a traced run in memory, aggregates layer self
// times as each image's root span ends, and writes the spans out at exit.
type tracer struct {
	mu      sync.Mutex
	kept    []span
	layers  map[string]time.Duration // self time per layer, summed over images
	images  int
	program int // program spans kept
}

func newTracer() *tracer {
	return &tracer{layers: map[string]time.Duration{}}
}

// benchSpan records one of the benchmark's own spans.
func (t *tracer) benchSpan(req, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.kept = append(t.kept, span{Req: req, Name: name, Layer: "bench", Start: start, End: end})
	t.mu.Unlock()
}

// callObserver collects the program spans of one public call. Span IDs are
// unique only within one call's recorder, so every call gets its own.
type callObserver struct {
	t   *tracer
	req string

	mu    sync.Mutex
	open  map[int64]int64 // span ID -> its image root's ID
	byImg map[int64][]span
	roots []span // finished image root spans, for the scheduler metrics
}

func (t *tracer) observer(req string) *callObserver {
	return &callObserver{t: t, req: req, open: map[int64]int64{}, byImg: map[int64][]span{}}
}

func (o *callObserver) SpanStart(ev firmres.SpanEvent) {
	o.mu.Lock()
	root := ev.ID
	if ev.Parent != 0 {
		root = o.open[ev.Parent]
	}
	o.open[ev.ID] = root
	o.mu.Unlock()
}

func (o *callObserver) SpanEnd(ev firmres.SpanEvent) {
	s := span{Req: o.req, ID: ev.ID, Parent: ev.Parent, Name: ev.Name, Start: ev.Start, End: ev.End}
	o.mu.Lock()
	root := o.open[ev.ID]
	delete(o.open, ev.ID)
	o.byImg[root] = append(o.byImg[root], s)
	var img []span
	if ev.Parent == 0 {
		img = o.byImg[root]
		delete(o.byImg, root)
		o.roots = append(o.roots, s)
	}
	o.mu.Unlock()
	if img != nil {
		o.t.addImage(img)
	}
}

// addImage folds one finished image's spans into the layer aggregates.
func (t *tracer) addImage(spans []span) {
	self, layers := layerSelfTimes(spans)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.images++
	for l, d := range self {
		t.layers[l] += d
	}
	for _, s := range spans {
		if t.program >= maxKeptSpans {
			break
		}
		s.Layer = layers[s.ID]
		t.kept = append(t.kept, s)
		t.program++
	}
}

// layerSelfTimes attributes an image's span tree to layers. A layer entry
// is a span whose layer differs from its parent's (the root is one). Each
// entry contributes its duration minus the part covered by the nearest
// entries of other layers below it, so nested layers (strip recovery
// inside pinpointing) are not counted twice and concurrent children (the
// probe fan-out) count once as wall time.
// It also returns the layer of every span by ID.
func layerSelfTimes(spans []span) (map[string]time.Duration, map[int64]string) {
	byID := make(map[int64]span, len(spans))
	children := make(map[int64][]int64, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
		children[s.Parent] = append(children[s.Parent], s.ID)
	}
	layer := map[int64]string{}
	var layerFor func(id int64) string
	layerFor = func(id int64) string {
		if l, ok := layer[id]; ok {
			return l
		}
		s := byID[id]
		l, ok := layerOf[s.Name]
		if !ok {
			if _, has := byID[s.Parent]; has {
				l = layerFor(s.Parent)
			} else {
				l = "other"
			}
		}
		layer[id] = l
		return l
	}
	isEntry := func(id int64) bool {
		p, ok := byID[byID[id].Parent]
		return !ok || layerFor(p.ID) != layerFor(id)
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		if !isEntry(s.ID) {
			continue
		}
		var nested []interval
		var walk func(id int64)
		walk = func(id int64) {
			for _, c := range children[id] {
				if isEntry(c) {
					nested = append(nested, byID[c].iv())
					continue
				}
				walk(c)
			}
		}
		walk(s.ID)
		out[layerFor(s.ID)] += selfTime(s.iv(), nested)
	}
	return out, layer
}

// schedulerTimes reports, for one batch call over [start, end) whose
// images ran as rootSpans on workers workers: the summed image time (busy)
// and the tail, the final stretch of the call during which fewer images
// were in flight than the pool could run.
func schedulerTimes(start, end time.Time, roots []span, workers int) (busy, tail time.Duration) {
	type edge struct {
		at    time.Time
		delta int
	}
	edges := make([]edge, 0, 2*len(roots))
	for _, s := range roots {
		busy += s.End.Sub(s.Start)
		edges = append(edges, edge{s.Start, +1}, edge{s.End, -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at.Equal(edges[j].at) {
			return edges[i].delta < edges[j].delta
		}
		return edges[i].at.Before(edges[j].at)
	})
	full := workers
	if len(roots) < full {
		full = len(roots)
	}
	lastFull := start
	n := 0
	for _, e := range edges {
		before := n
		n += e.delta
		if before >= full && n < full {
			lastFull = e.at
		}
	}
	return busy, end.Sub(lastFull)
}

// write stores the kept spans as JSON lines under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.kept {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	return path, nil
}
