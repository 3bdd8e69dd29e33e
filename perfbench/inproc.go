package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"aryn/internal/core"
	"aryn/internal/docmodel"
	"aryn/internal/docset"
	"aryn/internal/llm"
	"aryn/internal/luna"
)

// serviceDoer answers requests in-process through the same luna.Service
// entry points the HTTP handlers call — the untraced baseline that
// server.overhead_ms subtracts from the HTTP latency.
type serviceDoer struct{ sys *core.System }

func (d serviceDoer) Query(ctx context.Context, req Request, sse bool) Outcome {
	out := Outcome{Key: req.Key, SSE: sse}
	svc := d.sys.QueryService()
	if req.Optimize != nil {
		svc = svc.WithOptimize(*req.Optimize)
	}
	var plan *luna.LogicalPlan
	if req.Plan != nil {
		p, err := luna.ParsePlan(string(req.Plan))
		if err != nil {
			out.Err = err
			return out
		}
		plan = p
	}
	start := time.Now()
	hooks := luna.StreamHooks{OnPartial: func([]*docmodel.Document) {
		if out.TTFR == 0 {
			out.TTFR = time.Since(start)
		}
	}}
	var res *luna.Result
	var err error
	switch {
	case plan != nil && sse:
		res, err = svc.RunPlanStream(ctx, req.Question, plan, hooks)
	case plan != nil:
		res, err = svc.RunPlan(ctx, req.Question, plan)
	case sse:
		res, err = svc.AskStream(ctx, req.Question, hooks)
	default:
		res, err = svc.Ask(ctx, req.Question)
	}
	out.Latency = time.Since(start)
	if out.TTFR == 0 {
		out.TTFR = out.Latency
	}
	return finish(out, res, err)
}

func finish(out Outcome, res *luna.Result, err error) Outcome {
	if err != nil {
		out.Err = fmt.Errorf("%s: %w", out.Key, err)
		return out
	}
	out.Kind, out.Answer, out.Docs = string(res.Answer.Kind), res.Answer.String(), len(res.Docs)
	out.Sig = signature(out.Kind, out.Answer, out.Docs)
	return out
}

func (d serviceDoer) Ingest(ctx context.Context, job Job) JobOutcome {
	return ingestInProcess(ctx, d.sys, job, nil)
}

// ingestInProcess runs System.IngestObserved and keeps its stage trace.
func ingestInProcess(ctx context.Context, sys *core.System, job Job, rec *Recorder) JobOutcome {
	out := JobOutcome{Docs: len(job.Blobs)}
	ctx, end := rec.Request(ctx, "core.ingest")
	var tr *docset.Trace
	start := time.Now()
	st, err := sys.IngestObserved(ctx, job.Blobs, func(t *docset.Trace) { tr = t })
	out.Elapsed = time.Since(start)
	end()
	if err != nil {
		out.Err = err
		return out
	}
	out.Documents, out.Chunks = st.Documents, st.Chunks
	if tr != nil {
		out.PipelineElapsed = tr.Wall
		for _, n := range tr.Nodes {
			s := n.Snapshot()
			out.Stages = append(out.Stages, stageTime{Name: s.Name, Busy: s.Busy, In: s.In})
		}
	}
	return out
}

// tracedDoer drives each request through the layers' public functions
// one at a time — Planner.Plan, Optimizer.Optimize, EstimatePlan,
// Executor.Compile, Executor.Run/RunStream, ObserveExec — with a span
// around each call and the tracing LLM client in front of System.LLM.
type tracedDoer struct {
	sys  *core.System
	rec  *Recorder
	llm  *tracingClient
	mu   sync.Mutex
	exec []*luna.ExecDetail
}

func newTracedDoer(sys *core.System, rec *Recorder) *tracedDoer {
	return &tracedDoer{sys: sys, rec: rec, llm: &tracingClient{inner: sys.LLM, rec: rec}}
}

func (d *tracedDoer) Query(ctx context.Context, req Request, sse bool) Outcome {
	out := Outcome{Key: req.Key, SSE: sse}
	svc := d.sys.QueryService()
	ec := *d.sys.EC
	ec.LLM = d.llm
	planner := luna.NewPlanner(d.llm, svc.Planner.Schema)
	exec := &luna.Executor{EC: &ec, Store: d.sys.Store}
	optimize := svc.Optimize
	if req.Optimize != nil {
		optimize = *req.Optimize
	}

	start := time.Now()
	ctx, endReq := d.rec.Request(ctx, "request")
	defer endReq()

	var rewritten *luna.LogicalPlan
	var err error
	pctx, endPlan := d.rec.Begin(ctx, "luna.plan")
	if req.Plan != nil {
		var plan *luna.LogicalPlan
		if plan, err = luna.ParsePlan(string(req.Plan)); err == nil {
			if err = luna.Validate(plan, planner.Schema); err == nil {
				rewritten = luna.Rewrite(plan, planner.Rewrites)
			}
		}
	} else {
		_, rewritten, err = planner.Plan(pctx, req.Question)
	}
	endPlan()
	if err != nil {
		return finish(out, nil, err)
	}

	toRun := rewritten
	if optimize {
		_, end := d.rec.Begin(ctx, "luna.optimize")
		toRun = (&luna.Optimizer{Model: svc.Cost, Cascade: svc.Cascade}).Optimize(rewritten)
		end()
	}
	if svc.Cost != nil {
		_, end := d.rec.Begin(ctx, "cost.estimate")
		base := float64(d.sys.Store.NumDocs())
		luna.EstimatePlan(rewritten, svc.Cost, base)
		if optimize {
			luna.EstimatePlan(toRun, svc.Cost, base)
		}
		end()
	}
	_, endCompile := d.rec.Begin(ctx, "luna.compile")
	_, err = exec.Compile(toRun)
	endCompile()
	if err != nil {
		return finish(out, nil, err)
	}

	xctx, endExec := d.rec.Begin(ctx, "luna.execute")
	var res *luna.Result
	if sse {
		res, err = exec.RunStream(xctx, toRun, luna.StreamHooks{OnPartial: func([]*docmodel.Document) {
			if out.TTFR == 0 {
				out.TTFR = time.Since(start)
			}
		}})
	} else {
		res, err = exec.Run(xctx, toRun)
	}
	endExec()
	if err == nil && svc.Cost != nil && res.Exec != nil {
		_, end := d.rec.Begin(ctx, "luna.observe")
		luna.ObserveExec(toRun, res.Exec, svc.Cost.Store)
		end()
	}
	out.Latency = time.Since(start)
	if out.TTFR == 0 {
		out.TTFR = out.Latency
	}
	if err == nil && res.Exec != nil {
		d.mu.Lock()
		d.exec = append(d.exec, res.Exec)
		d.mu.Unlock()
	}
	return finish(out, res, err)
}

func (d *tracedDoer) Ingest(ctx context.Context, job Job) JobOutcome {
	return ingestInProcess(ctx, d.sys, job, d.rec)
}

// tracingClient is the benchmark's llm.Client in front of System.LLM: a
// span per call, and the call's class read off the response — a memo hit
// comes back FromCache, a singleflight follower with zero usage, and an
// upstream call with the tokens it cost.
type tracingClient struct {
	inner llm.Client
	rec   *Recorder

	inflight, inflightMax atomic.Int64
	// epoch counts memo purges, so a prompt re-sent after a purge counts
	// as a new distinct prompt.
	epoch atomic.Int64

	mu     sync.Mutex
	hits   []float64 // µs
	misses []float64 // ms
	shared int64
	// upstream counts upstream calls per distinct prompt (per memo epoch).
	upstream map[string]int
}

func (t *tracingClient) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	ctx, end := t.rec.Begin(ctx, "llm.complete")
	n := t.inflight.Add(1)
	for {
		m := t.inflightMax.Load()
		if n <= m || t.inflightMax.CompareAndSwap(m, n) {
			break
		}
	}
	start := time.Now()
	resp, err := t.inner.Complete(ctx, req)
	d := time.Since(start)
	t.inflight.Add(-1)
	end()
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case err != nil:
	case resp.FromCache:
		t.hits = append(t.hits, float64(d)/float64(time.Microsecond))
	case resp.Usage == (llm.Usage{}):
		t.shared++
	default:
		t.misses = append(t.misses, ms(d))
		if t.upstream == nil {
			t.upstream = map[string]int{}
		}
		t.upstream[fmt.Sprintf("%d|%s", t.epoch.Load(), llm.Key(t.inner.Name(), req))]++
	}
	return resp, err
}

func (t *tracingClient) Name() string { return t.inner.Name() }

// Inner exposes the wrapped client so llm.StatsOf still finds the
// middleware stack behind it.
func (t *tracingClient) Inner() llm.Client { return t.inner }
