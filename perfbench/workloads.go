package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the closed-loop client count of every workload: analysts
// wait for each answer before asking the next.
const clients = 2

// jobThink is the ingest client's pause between one job's done and the
// next submit. Back-to-back jobs would grow the corpus tenfold within a
// run and push the warm working set past the memo's capacity, so the
// query side would measure memo thrash instead of reads beside ingest.
const jobThink = time.Second

// Doer executes requests: over HTTP, or in-process with or without spans.
type Doer interface {
	Query(ctx context.Context, req Request, sse bool) Outcome
	Ingest(ctx context.Context, job Job) JobOutcome
}

// Phase is what one timed stretch of a workload produced.
type Phase struct {
	Outcomes []Outcome
	// States holds, per outcome, the range of completed ingest jobs whose
	// corpus the answer may reflect (ingest-mixed only).
	States  [][2]int
	Jobs    []JobOutcome
	Elapsed time.Duration
	Guard   error
}

func (p *Phase) add(mu *sync.Mutex, o Outcome, states [2]int) {
	mu.Lock()
	p.Outcomes = append(p.Outcomes, o)
	p.States = append(p.States, states)
	mu.Unlock()
}

// coldPasses starts passes over the request set until window has elapsed:
// the memo is purged before each pass, and both clients pull the pass's
// requests in its seeded order. The last pass runs to completion, so every
// request is measured equally often and the percentiles do not move with
// where the window happened to cut a pass. A pass that issues no upstream
// call fails the guard — a cold workload must stay cold.
func coldPasses(ctx context.Context, b *bench, d Doer, sse bool, window time.Duration) *Phase {
	p := &Phase{}
	var mu sync.Mutex
	start := time.Now()
	for pass := 0; time.Since(start) < window; pass++ {
		b.rig.Sys.PurgeLLMCache()
		if b.traced != nil {
			b.traced.llm.epoch.Add(1)
		}
		before := b.rig.Sys.LLM.Usage()
		order := b.in.PassOrder(pass)
		eachShared(len(order), func(i int) {
			p.add(&mu, d.Query(ctx, b.in.Requests[order[i]], sse), [2]int{})
		})
		if b.rig.Sys.LLM.Usage().Sub(before).Calls == 0 && p.Guard == nil {
			p.Guard = fmt.Errorf("guard: cold pass %d issued no upstream LLM calls", pass)
		}
	}
	p.Elapsed = time.Since(start)
	return p
}

// eachShared calls fn(0..n-1) from the closed-loop clients: each client
// takes the next index when its previous call returns.
func eachShared(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// warmup sends every distinct request until a whole pass issues no
// upstream call (the optimizer may reorder a plan once feedback arrives,
// sending a few new prompts). It returns the first pass's answers — the
// cold answers the warm oracle compares against — and that pass's
// upstream tokens per query.
func warmup(ctx context.Context, b *bench, d Doer) (map[string]string, float64, error) {
	reqs := b.in.Requests
	var cold map[string]string
	var tokensPerQuery float64
	for pass := 0; pass < 6; pass++ {
		before := b.rig.Sys.LLM.Usage()
		outs := make([]Outcome, len(reqs))
		eachShared(len(reqs), func(i int) { outs[i] = d.Query(ctx, reqs[i], false) })
		for _, o := range outs {
			if o.failed() {
				return nil, 0, fmt.Errorf("warm-up %s: %v (shed=%v degraded=%v)", o.Key, o.Err, o.Shed, o.Degraded)
			}
		}
		delta := b.rig.Sys.LLM.Usage().Sub(before)
		if pass == 0 {
			cold = map[string]string{}
			for _, o := range outs {
				cold[o.Key] = o.Sig
			}
			tokensPerQuery = float64(delta.Total()) / float64(len(reqs))
		}
		if delta.Calls == 0 {
			return cold, tokensPerQuery, nil
		}
	}
	return nil, 0, fmt.Errorf("warm-up still issued upstream calls after 6 passes")
}

// warmLoop runs the Zipf-drawn warm traffic: both clients draw requests,
// or — with ingest — client 0 submits ingest jobs back to back while
// client 1 queries. firstJob numbers the phase's jobs after any earlier
// phase's.
func warmLoop(ctx context.Context, b *bench, d Doer, window time.Duration, ingest bool, firstJob int) *Phase {
	p := &Phase{}
	var mu sync.Mutex
	var submitted, done atomic.Int64
	submitted.Store(int64(firstJob))
	done.Store(int64(firstJob))
	start := time.Now()
	until := start.Add(window)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if ingest && c == 0 {
				for i := firstJob; time.Now().Before(until); i++ {
					job, err := b.in.Job(i)
					if err != nil {
						mu.Lock()
						p.Jobs = append(p.Jobs, JobOutcome{Err: err})
						mu.Unlock()
						return
					}
					submitted.Add(1)
					jo := d.Ingest(ctx, job)
					done.Add(1)
					mu.Lock()
					p.Jobs = append(p.Jobs, jo)
					mu.Unlock()
					if wait := time.Until(until); wait > 0 {
						time.Sleep(min(jobThink, wait))
					}
				}
				return
			}
			dr := b.in.NewDrawer(c)
			for time.Now().Before(until) {
				req, sse := dr.Next()
				lo := int(done.Load())
				o := d.Query(ctx, req, sse)
				p.add(&mu, o, [2]int{lo, int(submitted.Load())})
			}
		}()
	}
	wg.Wait()
	p.Elapsed = time.Since(start)
	return p
}
