package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Spans of one request share Request; Parent
// is the span that caused this one (0 for a request's root).
type Span struct {
	ID      int64         `json:"id"`
	Parent  int64         `json:"parent"`
	Request int64         `json:"request"`
	Name    string        `json:"name"`
	Start   time.Duration `json:"start_ns"`
	End     time.Duration `json:"end_ns"`
}

// Dur is the span's width.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Recorder keeps spans in memory until the run ends. A nil *Recorder
// records nothing, so untraced code paths call it unconditionally.
type Recorder struct {
	origin time.Time
	ids    atomic.Int64
	mu     sync.Mutex
	spans  []Span
}

// NewRecorder starts a recorder whose span times are offsets from now.
func NewRecorder() *Recorder { return &Recorder{origin: time.Now()} }

type spanKey struct{}

// spanCtx is the causal position a context carries: the enclosing span
// and the request it belongs to.
type spanCtx struct{ id, request int64 }

// Request opens the root span of a new request.
func (r *Recorder) Request(ctx context.Context, name string) (context.Context, func()) {
	if r == nil {
		return ctx, func() {}
	}
	id := r.ids.Add(1)
	return r.open(ctx, name, spanCtx{id: id, request: id}, 0)
}

// Begin opens a child of the span ctx carries and returns the context
// its own children run under, plus the function that closes it.
func (r *Recorder) Begin(ctx context.Context, name string) (context.Context, func()) {
	if r == nil {
		return ctx, func() {}
	}
	parent, _ := ctx.Value(spanKey{}).(spanCtx)
	return r.open(ctx, name, spanCtx{id: r.ids.Add(1), request: parent.request}, parent.id)
}

func (r *Recorder) open(ctx context.Context, name string, sc spanCtx, parent int64) (context.Context, func()) {
	start := time.Since(r.origin)
	return context.WithValue(ctx, spanKey{}, sc), func() {
		end := time.Since(r.origin)
		r.mu.Lock()
		r.spans = append(r.spans, Span{ID: sc.id, Parent: parent, Request: sc.request, Name: name, Start: start, End: end})
		r.mu.Unlock()
	}
}

// Spans returns a copy of every closed span, ordered by ID.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]Span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// WriteJSONL writes every span as one JSON object per line.
func (r *Recorder) WriteJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// children indexes spans by parent ID.
func children(spans []Span) map[int64][]Span {
	out := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			out[s.Parent] = append(out[s.Parent], s)
		}
	}
	return out
}

// selfTime is the span's width minus the part of it that the union of
// its children's intervals covers. Overlapping children (concurrent LLM
// calls from several workers) are counted once; children reaching past
// the span are clipped to it.
func selfTime(s Span, kids []Span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered time.Duration
	var curLo, curHi time.Duration
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] <= curHi:
			curHi = max(curHi, v[1])
		default:
			covered += curHi - curLo
			curLo, curHi = v[0], v[1]
		}
	}
	if len(iv) > 0 {
		covered += curHi - curLo
	}
	return s.Dur() - covered
}
