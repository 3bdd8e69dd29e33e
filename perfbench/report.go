package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"aryn/internal/llm"
	"aryn/internal/server/api"
)

// statsSnap is the server-side counters at one instant: GET /v1/stats
// plus the in-process middleware counters behind it.
type statsSnap struct {
	api   api.StatsResponse
	stack llm.StackStats
}

func (b *bench) snap(ctx context.Context) (statsSnap, error) {
	st, err := b.rig.stats(ctx)
	return statsSnap{api: st, stack: b.rig.Sys.LLMStats()}, err
}

// usage is the /v1/stats usage delta across the phase.
func (m *measured) usage() llm.Usage { return m.after.api.Usage.Sub(m.before.api.Usage) }

// completed returns the outcomes that succeeded.
func (m *measured) completed() []Outcome {
	var out []Outcome
	for _, o := range m.Outcomes {
		if !o.failed() {
			out = append(out, o)
		}
	}
	return out
}

// grading is what the oracles made of a run.
type grading struct {
	// correct counts, per phase, completed queries whose answer passed
	// the workload's oracle.
	correct []int
	// violations lists breaches of the exact oracles: answers that must
	// equal a reference byte for byte, and ingest job counts.
	violations []string
	// jobTokens[i] is job i's own upstream spend (ingest-mixed).
	jobTokens []int
}

func (g *grading) violate(format string, args ...any) {
	g.violations = append(g.violations, fmt.Sprintf(format, args...))
}

// grade applies the workload's oracles to every phase.
func (b *bench) grade(ctx context.Context, phases []*measured) (*grading, error) {
	g := &grading{correct: make([]int, len(phases))}
	byKey := map[string]Request{}
	for _, r := range b.in.Requests {
		byKey[r.Key] = r
	}
	var rp *replay
	if b.workload == "ingest-mixed" {
		var err error
		if rp, err = b.replayFor(ctx, phases, byKey); err != nil {
			return nil, err
		}
		g.jobTokens = rp.jobTokens
	}
	first := map[string]string{}
	jobIdx := 0
	for pi, m := range phases {
		for i, o := range m.Outcomes {
			if o.failed() {
				continue
			}
			ok := false
			switch b.workload {
			case "qa-cold":
				ok = gradeQA(b.in, byKey[o.Key], o)
			case "scan-cold", "repeat-warm":
				ok = o.Sig == b.expect[o.Key]
			case "ingest-mixed":
				st := m.States[i]
				for s := st[0]; s <= st[1] && !ok; s++ {
					ok = sameItems(rp.answers[s][o.Key], o.Sig)
				}
			}
			if ok {
				g.correct[pi]++
			} else if b.workload == "ingest-mixed" {
				fmt.Fprintf(os.Stderr, "oracle miss: %s at states %v: got %q, want one of %q\n", o.Key, m.States[i], o.Sig, stateAnswers(rp, m.States[i], o.Key))
			} else if b.workload != "qa-cold" {
				g.violate("%s: got %q, oracle %q", o.Key, o.Sig, b.expect[o.Key])
			}
			// Within a run a request's answer never changes unless an
			// ingest swapped the corpus: this also holds the traced phase
			// to the untraced one.
			if b.workload != "ingest-mixed" {
				if prev, seen := first[o.Key]; !seen {
					first[o.Key] = o.Sig
				} else if prev != o.Sig {
					g.violate("%s: answer changed within the run (phase %d): %q then %q", o.Key, pi, prev, o.Sig)
				}
			}
		}
		for _, j := range m.Jobs {
			if j.Err == nil && (j.Documents != rp.docs[jobIdx] || j.Chunks != rp.chunks[jobIdx]) {
				g.violate("ingest job %d: %d documents / %d chunks, want %d / %d",
					jobIdx, j.Documents, j.Chunks, rp.docs[jobIdx], rp.chunks[jobIdx])
			}
			jobIdx++
		}
	}
	return g, nil
}

// sameItems compares two answer signatures, ignoring the order of list
// items: the zero-latency replay can finish documents in another order
// than the latency-modelled system, and the ingest oracle asks only which
// corpus state an answer reflects.
func sameItems(a, b string) bool {
	return a == b || (strings.HasPrefix(a, "list|") && sortedItems(a) == sortedItems(b))
}

func sortedItems(sig string) string {
	body, docs, _ := strings.Cut(strings.TrimPrefix(sig, "list|"), "|docs=")
	items := strings.Split(body, ", ")
	sort.Strings(items)
	return strings.Join(items, ", ") + "|docs=" + docs
}

func stateAnswers(rp *replay, st [2]int, key string) []string {
	var out []string
	for s := st[0]; s <= st[1]; s++ {
		out = append(out, rp.answers[s][key])
	}
	return out
}

// replayFor collects which requests each corpus state must answer and
// replays the ingest history.
func (b *bench) replayFor(ctx context.Context, phases []*measured, byKey map[string]Request) (*replay, error) {
	states := 1
	for _, m := range phases {
		states += len(m.Jobs)
	}
	need := make([]map[string]bool, states)
	for s := range need {
		need[s] = map[string]bool{}
	}
	for _, m := range phases {
		for i, o := range m.Outcomes {
			if o.failed() {
				continue
			}
			for s := m.States[i][0]; s <= m.States[i][1]; s++ {
				need[s][o.Key] = true
			}
		}
	}
	return runReplay(ctx, b.in, byKey, need)
}

// liveHeapMB is the live heap after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// report grades the run, enforces the guards and assembles the result:
// end-to-end metrics from the first (HTTP) phase, or per-layer metrics
// when the run was traced.
func (b *bench) report(ctx context.Context, phases []*measured) (*Result, error) {
	heap := liveHeapMB()
	g, err := b.grade(ctx, phases)
	if err != nil {
		return nil, err
	}
	last := phases[len(phases)-1]
	if res := last.after.api.Resilience; res == nil || res.Retries != 0 {
		return nil, fmt.Errorf("guard: resilience retries must be 0, stats %+v", res)
	}
	primary := phases[0]
	done := primary.completed()
	cold := b.workload == "qa-cold" || b.workload == "scan-cold"
	if cold {
		if p50 := median(latencies(done)); p50 < ms(rtt) {
			return nil, fmt.Errorf("guard: cold query p50 %.3f ms is below the modelled %v round-trip", p50, rtt)
		}
	}
	res := &Result{Correct: len(g.violations) == 0, Metrics: map[string]Metric{}}
	for _, m := range phases {
		res.Attempted += len(m.Outcomes) + len(m.Jobs)
		for _, o := range m.Outcomes {
			if o.failed() {
				res.Failed++
				fmt.Fprintf(os.Stderr, "failed: %s: %v shed=%v degraded=%v\n", o.Key, o.Err, o.Shed, o.Degraded)
			}
		}
		for _, j := range m.Jobs {
			if j.Err != nil {
				res.Failed++
				fmt.Fprintf(os.Stderr, "failed: ingest job: %v\n", j.Err)
			}
		}
	}
	for _, v := range g.violations {
		fmt.Fprintln(os.Stderr, "oracle:", v)
	}
	if b.traced == nil {
		b.endToEnd(res.Metrics, primary, g, heap)
	} else {
		if err := b.perLayer(res.Metrics, phases, g); err != nil {
			return nil, err
		}
	}
	printMetrics(res, primary)
	return res, nil
}

// endToEnd fills the metrics a user of the system sees.
func (b *bench) endToEnd(out map[string]Metric, m *measured, g *grading, heap float64) {
	done := m.completed()
	lat, ttfr := latencies(done), ttfrs(done)
	put := func(name string, v float64, unit string) { out[name] = Metric{Value: v, Unit: unit} }
	put("query_p50_ms", median(lat), "ms")
	put("query_p95_ms", percentile(lat, 95), "ms")
	put("query_qps", float64(len(done))/m.Elapsed.Seconds(), "1/s")
	put("ttfr_p50_ms", median(ttfr), "ms")
	put("ttfr_p95_ms", percentile(ttfr, 95), "ms")
	attempted := len(m.Outcomes) + len(m.Jobs)
	failed := len(m.Outcomes) - len(done)
	var jobDocs, jobSecs float64
	for _, j := range m.Jobs {
		if j.Err != nil {
			failed++
			continue
		}
		jobDocs += float64(j.Docs)
		jobSecs += j.Elapsed.Seconds()
	}
	if b.workload == "ingest-mixed" {
		put("ingest_docs_per_s", ratio(jobDocs, jobSecs), "1/s")
	} else {
		put("ingest_docs_per_s", median(b.setupRates), "1/s")
	}
	put("answers_correct_frac", ratio(float64(g.correct[0]), float64(len(done))), "fraction")
	put("ok_frac", 1-ratio(float64(failed), float64(attempted)), "fraction")
	// The warm workloads report their cold pass: the timed window spends
	// nothing on repeat-warm (a guard holds it to zero), and on
	// ingest-mixed its spend moves by a quarter from run to run with which
	// requests happen to follow each corpus swap. llm.tokens_per_query in
	// the traced run keeps the window's own figure.
	tokens := windowTokensPerQuery(m, g)
	if b.workload == "repeat-warm" || b.workload == "ingest-mixed" {
		tokens = b.warmTokens
	}
	put("llm_tokens_per_query", tokens, "tokens")
	put("setup_s", median(b.setupTimes), "s")
	put("live_heap_mb", heap, "MiB")
}

// windowTokensPerQuery is the phase's upstream spend per completed query,
// from the /v1/stats usage delta less its ingest jobs' own spend. The
// phase must be the run's first, whose jobs are the first replayed.
func windowTokensPerQuery(m *measured, g *grading) float64 {
	tokens := float64(m.usage().Total())
	for i := range m.Jobs {
		tokens -= float64(g.jobTokens[i])
	}
	return ratio(tokens, float64(len(m.completed())))
}

func latencies(os []Outcome) []float64 {
	out := make([]float64, len(os))
	for i, o := range os {
		out[i] = ms(o.Latency)
	}
	return out
}

func ttfrs(os []Outcome) []float64 {
	out := make([]float64, len(os))
	for i, o := range os {
		out[i] = ms(o.TTFR)
	}
	return out
}

// printMetrics writes the human-readable report: every metric with its
// unit, and the sample count behind each percentile.
func printMetrics(res *Result, m *measured) {
	perKey, perKeyTTFR := map[string][]float64{}, map[string][]float64{}
	for _, o := range m.completed() {
		perKey[o.Key] = append(perKey[o.Key], ms(o.Latency))
		perKeyTTFR[o.Key] = append(perKeyTTFR[o.Key], ms(o.TTFR))
	}
	keys := make([]string, 0, len(perKey))
	for k := range perKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "request %-16s n=%-5d p50=%.3f ms ttfr_p50=%.3f ms\n", k, len(perKey[k]), median(perKey[k]), median(perKeyTTFR[k]))
	}
	n := len(m.completed())
	fmt.Printf("samples: %d completed queries; p95 %s (%d above it, %d needed)\n",
		n, map[bool]string{true: "resolved", false: "NOT resolved"}[tailResolved(n, 95)], samplesAbove(n, 95), minTail)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		fmt.Fprintf(&sb, "%-40s %14.4f %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	fmt.Print(sb.String())
}
