package main

import (
	"context"
	"testing"
	"time"
)

func span(start, end time.Duration) Span { return Span{Start: start, End: end} }

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := span(0, 100)
	for _, c := range []struct {
		name string
		kids []Span
		want time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []Span{span(10, 20), span(30, 50)}, 70},
		{"overlapping counted once", []Span{span(10, 40), span(20, 60), span(50, 55)}, 50},
		{"nested", []Span{span(10, 90), span(20, 30)}, 20},
		{"clipped to the parent", []Span{span(-10, 10), span(95, 120)}, 85},
		{"outside the parent", []Span{span(100, 130)}, 100},
		{"unsorted", []Span{span(70, 80), span(0, 10), span(5, 15)}, 75},
	} {
		if got := selfTime(parent, c.kids); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRecorderLinksParents(t *testing.T) {
	rec := NewRecorder()
	ctx, endReq := rec.Request(context.Background(), "request")
	cctx, endChild := rec.Begin(ctx, "luna.plan")
	_, endLeaf := rec.Begin(cctx, "llm.complete")
	endLeaf()
	endChild()
	endReq()
	_, endOther := rec.Request(context.Background(), "request")
	endOther()

	spans := rec.Spans()
	if len(spans) != 4 {
		t.Fatalf("%d spans, want 4", len(spans))
	}
	req, plan, leaf, other := spans[0], spans[1], spans[2], spans[3]
	if req.Parent != 0 || plan.Parent != req.ID || leaf.Parent != plan.ID {
		t.Errorf("parent links: %+v", spans)
	}
	if plan.Request != req.ID || leaf.Request != req.ID || other.Request == req.ID {
		t.Errorf("request ids: %+v", spans)
	}
	if leaf.Start < plan.Start || leaf.End > plan.End {
		t.Errorf("child %+v outside parent %+v", leaf, plan)
	}

	var none *Recorder
	ctx2, end := none.Begin(context.Background(), "x")
	end()
	if ctx2 == nil || none.Spans() != nil {
		t.Error("a nil recorder must record nothing")
	}
}
