// Command perfbench is the repository's end-to-end benchmark. It boots
// the system the way arynd serves it — Parallelism 8, the resilience
// middleware on, server.Config defaults — plus a modelled 20 ms round-trip
// per upstream LLM dispatch, serves it on a loopback listener, and drives
// one workload with two closed-loop clients:
//
//	qa-cold       the paper's 30 NTSB questions, memo purged every pass (JSON)
//	scan-cold     LLM-operator-heavy plans, optimize on, memo purged (SSE)
//	repeat-warm   a Zipf draw over both, memo warm (half JSON, half SSE)
//	ingest-mixed  async ingest jobs on one client, repeat-warm on the other
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload qa-cold --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics — end-to-end ones with --trace 0,
// per-layer ones from a separate traced run with --trace 1. Guards that
// would make a figure meaningless (the modelled round-trip not in
// effect, a cold workload gone warm, a warm one going upstream, a retry)
// fail the run instead.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// A run boots the system at least minSetups times and until setupBudget
// has been spent on it, then reports the median. A set-up of the small
// qa-cold corpus lasts a third of a second, short enough for one burst of
// load from elsewhere on the machine to move it by a quarter; more of them
// in the same time keep its median steady.
const (
	minSetups   = 5
	setupBudget = 3 * time.Second
)

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "qa-cold, scan-cold, repeat-warm or ingest-mixed")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced, per-layer variant")
	flag.Parse()
	if _, err := os.Stat("go.mod"); err != nil {
		fail(fmt.Errorf("run from the repository root: %w", err))
	}
	res, err := run(context.Background(), *workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// bench is one run's state.
type bench struct {
	workload string
	in       *Inputs
	rig      *Rig
	traced   *tracedDoer
	// setupTimes and setupRates are each boot's wall time and its corpus
	// ingest rate in documents per second.
	setupTimes, setupRates []float64
	// expect maps request keys to the answer the oracle requires: the
	// unoptimized answer (scan-cold) or the cold answer (warm workloads).
	expect map[string]string
	// warmTokens is the warm-up pass's upstream tokens per query.
	warmTokens float64
}

func run(ctx context.Context, workload string, seed int64, window time.Duration, traced bool) (*Result, error) {
	in, err := Generate(workload, seed)
	if err != nil {
		return nil, err
	}
	b := &bench{workload: workload, in: in}
	defer func() {
		if b.rig != nil {
			b.rig.Close()
		}
	}()
	if err := b.setup(ctx); err != nil {
		return nil, err
	}
	if err := b.prepare(ctx); err != nil {
		return nil, err
	}
	if !traced {
		ph, err := b.measure(ctx, httpDoer{b.rig}, window, 0)
		if err != nil {
			return nil, err
		}
		return b.report(ctx, []*measured{ph})
	}
	// The traced run: the same workload three times, a third of the
	// window each — over HTTP, in-process through the service entry
	// points, and in-process layer by layer with spans.
	third := window / 3
	httpPh, err := b.measure(ctx, httpDoer{b.rig}, third, 0)
	if err != nil {
		return nil, err
	}
	svcPh, err := b.measure(ctx, serviceDoer{b.rig.Sys}, third, len(httpPh.Jobs))
	if err != nil {
		return nil, err
	}
	b.traced = newTracedDoer(b.rig.Sys, NewRecorder())
	trPh, err := b.measure(ctx, b.traced, third, len(httpPh.Jobs)+len(svcPh.Jobs))
	if err != nil {
		return nil, err
	}
	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	if err := b.traced.rec.WriteJSONL(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "spans: %d written to %s\n", len(b.traced.rec.Spans()), path)
	return b.report(ctx, []*measured{httpPh, svcPh, trPh})
}

// setup boots the system and loads the base corpus through the async
// ingest API, several times, keeping the last system for the run.
func (b *bench) setup(ctx context.Context) error {
	job := newJob(b.in.Blobs)
	var spent time.Duration
	for i := 0; i < minSetups || spent < setupBudget; i++ {
		if b.rig != nil {
			b.rig.Close()
			b.rig = nil
			runtime.GC()
		}
		start := time.Now()
		rig, err := boot()
		if err != nil {
			return err
		}
		b.rig = rig
		jo := httpDoer{rig}.Ingest(ctx, job)
		elapsed := time.Since(start)
		spent += elapsed
		if jo.Err != nil {
			return fmt.Errorf("setup ingest: %w", jo.Err)
		}
		if jo.Documents != len(b.in.Blobs) || jo.Chunks == 0 {
			return fmt.Errorf("setup ingest: %d documents and %d chunks for %d blobs", jo.Documents, jo.Chunks, len(b.in.Blobs))
		}
		b.setupTimes = append(b.setupTimes, elapsed.Seconds())
		b.setupRates = append(b.setupRates, float64(jo.Docs)/jo.Elapsed.Seconds())
	}
	return nil
}

// prepare computes what the oracles compare against before any timing.
func (b *bench) prepare(ctx context.Context) error {
	d := httpDoer{b.rig}
	switch b.workload {
	case "scan-cold":
		outs := make([]Outcome, len(b.in.Requests))
		eachShared(len(outs), func(i int) { outs[i] = d.Query(ctx, b.in.Requests[i].unoptimized(), false) })
		b.expect = map[string]string{}
		for _, o := range outs {
			if o.failed() {
				return fmt.Errorf("unoptimized reference %s: %v", o.Key, o.Err)
			}
			b.expect[o.Key] = o.Sig
		}
	case "repeat-warm", "ingest-mixed":
		cold, tokens, err := warmup(ctx, b, d)
		if err != nil {
			return err
		}
		b.expect, b.warmTokens = cold, tokens
	}
	return nil
}

// measured is one phase plus the server-side counters around it.
type measured struct {
	*Phase
	before, after statsSnap
}

// measure runs the workload's traffic for window through d.
func (b *bench) measure(ctx context.Context, d Doer, window time.Duration, firstJob int) (*measured, error) {
	m := &measured{}
	var err error
	if m.before, err = b.snap(ctx); err != nil {
		return nil, err
	}
	switch b.workload {
	case "qa-cold":
		m.Phase = coldPasses(ctx, b, d, false, window)
	case "scan-cold":
		m.Phase = coldPasses(ctx, b, d, true, window)
	case "repeat-warm":
		m.Phase = warmLoop(ctx, b, d, window, false, firstJob)
	case "ingest-mixed":
		m.Phase = warmLoop(ctx, b, d, window, true, firstJob)
	}
	if m.Guard != nil {
		return nil, m.Guard
	}
	if m.after, err = b.snap(ctx); err != nil {
		return nil, err
	}
	if calls := m.usage().Calls; b.workload == "repeat-warm" && calls != 0 {
		return nil, fmt.Errorf("guard: repeat-warm issued %d upstream LLM calls after warm-up", calls)
	}
	return m, nil
}
