package main

import (
	"fmt"
	"strings"
)

// opKinds are the docset operator kinds reported per layer; every other
// plan operator folds into "other".
var opKinds = []string{
	"queryDatabase", "queryVectorDatabase", "llmFilter", "llmFilterCascade",
	"llmExtract", "join", "groupByAggregate", "other",
}

func opKind(op string) string {
	for _, k := range opKinds {
		if k == op {
			return k
		}
	}
	return "other"
}

// perLayer fills the per-layer metrics from the three phases of a traced
// run: phases[0] over HTTP, phases[1] in-process through the service
// entry points, phases[2] in-process layer by layer with spans.
func (b *bench) perLayer(out map[string]Metric, phases []*measured, g *grading) error {
	httpPh, svcPh, trPh := phases[0], phases[1], phases[2]
	put := func(name string, v float64, unit string) { out[name] = Metric{Value: v, Unit: unit} }
	httpDone, svcDone, trDone := httpPh.completed(), svcPh.completed(), trPh.completed()
	queries := float64(len(trDone))

	// server: what HTTP adds over calling the service in-process.
	put("server.overhead_ms", median(latencies(httpDone))-median(latencies(svcDone)), "ms")
	var events, streamed float64
	for _, o := range httpDone {
		if o.SSE {
			events += float64(o.Events)
			streamed++
		}
	}
	put("server.sse_events_per_query", ratio(events, streamed), "count")
	put("server.shed", float64(httpPh.after.api.Gate.Shed-httpPh.before.api.Gate.Shed), "count")
	// The tracing overhead: traced minus untraced in-process latency.
	put("trace.overhead_ms", median(latencies(trDone))-median(latencies(svcDone)), "ms")
	put("trace.correct_frac", ratio(float64(g.correct[2]), queries), "fraction")

	// luna and cost: span widths and self times.
	spans := b.traced.rec.Spans()
	kids := children(spans)
	byName := map[string][]float64{}
	self := map[string][]float64{}
	names := map[int64]string{}
	for _, s := range spans {
		names[s.ID] = s.Name
	}
	plannerCalls := 0
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], ms(s.Dur()))
		self[s.Name] = append(self[s.Name], ms(selfTime(s, kids[s.ID])))
		if s.Name == "llm.complete" && names[s.Parent] == "luna.plan" {
			plannerCalls++
		}
	}
	put("luna.plan_ms", median(byName["luna.plan"]), "ms")
	put("luna.plan_self_ms", median(self["luna.plan"]), "ms")
	put("luna.planner_calls_per_query", ratio(float64(plannerCalls), queries), "count")
	put("luna.optimize_ms", median(byName["luna.optimize"]), "ms")
	put("luna.compile_ms", median(byName["luna.compile"]), "ms")
	put("luna.execute_ms", median(byName["luna.execute"]), "ms")
	put("luna.execute_self_ms", median(self["luna.execute"]), "ms")
	put("luna.observe_ms", median(byName["luna.observe"]), "ms")
	put("cost.estimate_ms", median(byName["cost.estimate"]), "ms")
	put("cost.feedback_entries", float64(b.rig.Sys.OptimizerStats().Entries), "count")

	// docset: per operator kind, from each query's EXPLAIN ANALYZE detail.
	type agg struct {
		busy, wall, in, out float64
		firstOut            []float64
	}
	ops := map[string]*agg{}
	for _, k := range opKinds {
		ops[k] = &agg{}
	}
	var busy, capacity, escalations, cascadeIn, retries, retrieve float64
	for _, ex := range b.traced.exec {
		capacity += ex.WallMS * float64(ex.Budget)
		for _, n := range ex.Nodes {
			r := n.Runtime
			a := ops[opKind(n.Op)]
			a.busy += r.BusyMS
			a.wall += r.WallMS
			a.in += float64(r.DocsIn)
			a.out += float64(r.DocsOut)
			if r.FirstOutMS > 0 {
				a.firstOut = append(a.firstOut, r.FirstOutMS)
			}
			busy += r.BusyMS
			retries += float64(r.Retries)
			if n.Op == "llmFilterCascade" {
				escalations += float64(r.Escalations)
				cascadeIn += float64(r.DocsIn)
			}
			if n.Op == "queryDatabase" || n.Op == "queryVectorDatabase" {
				retrieve += r.BusyMS
			}
		}
	}
	for _, k := range opKinds {
		a := ops[k]
		put("docset."+k+".busy_ms", ratio(a.busy, queries), "ms")
		put("docset."+k+".wall_ms", ratio(a.wall, queries), "ms")
		put("docset."+k+".first_out_ms", median(a.firstOut), "ms")
		put("docset."+k+".docs_out_per_in", ratio(a.out, a.in), "ratio")
	}
	put("docset.occupancy", ratio(busy, capacity), "ratio")
	put("docset.cascade_escalation_rate", ratio(escalations, cascadeIn), "ratio")
	put("docset.retries", retries, "count")

	// llm: the tracing client's view plus the stack's counters.
	t := b.traced.llm
	t.mu.Lock()
	requests := float64(len(t.hits) + len(t.misses) + int(t.shared))
	put("llm.requests_per_query", ratio(requests, queries), "count")
	put("llm.memo_hit_rate", ratio(float64(len(t.hits)), requests), "ratio")
	put("llm.flight_shared_per_query", ratio(float64(t.shared), queries), "count")
	put("llm.upstream_per_distinct_prompt", ratio(float64(len(t.misses)), float64(len(t.upstream))), "ratio")
	missP50 := median(t.misses)
	put("llm.hit_p50_us", median(t.hits), "us")
	put("llm.miss_p50_ms", missP50, "ms")
	t.mu.Unlock()
	if len(t.misses) > 0 {
		put("llm.miss_overhead_ms", missP50-ms(rtt), "ms")
	} else {
		put("llm.miss_overhead_ms", 0, "ms")
	}
	put("llm.inflight_max", float64(t.inflightMax.Load()), "count")
	put("llm.tokens_per_query", windowTokensPerQuery(httpPh, g), "tokens")
	batch := trPh.after.stack.Batch.Sub(trPh.before.stack.Batch)
	put("llm.dispatches_per_query", ratio(float64(batch.Batches), queries), "count")
	put("llm.batch_size_mean", ratio(float64(batch.Requests), float64(batch.Batches)), "count")
	if b.workload == "qa-cold" || b.workload == "scan-cold" {
		if missP50 < ms(rtt) {
			return fmt.Errorf("guard: llm.miss_p50_ms %.3f is below the modelled %v round-trip", missP50, rtt)
		}
	}

	// index, embed, docparse, core: the traced phase's ingest stage traces.
	var jobs, docs, chunks, partition, extract, embedBusy, write, prepare float64
	for _, j := range trPh.Jobs {
		if j.Err != nil {
			continue
		}
		jobs++
		docs += float64(j.Docs)
		prepare += ms(j.Elapsed - j.PipelineElapsed)
		for _, st := range j.Stages {
			busy := ms(st.Busy)
			switch {
			case strings.HasPrefix(st.Name, "partition["):
				partition += busy
			case strings.HasPrefix(st.Name, "llmExtract["):
				extract += busy
			case st.Name == "embed":
				embedBusy += busy
				chunks += float64(st.In)
			case strings.HasPrefix(st.Name, "write["):
				write += busy
			}
		}
	}
	put("index.retrieve_ms", ratio(retrieve, queries), "ms")
	put("index.write_ms_per_doc", ratio(write, docs), "ms")
	put("embed.ms_per_chunk", ratio(embedBusy, chunks), "ms")
	put("docparse.partition_ms_per_doc", ratio(partition, docs), "ms")
	put("core.extract_ms_per_doc", ratio(extract, docs), "ms")
	put("core.prepare_ms", ratio(prepare, jobs), "ms")
	put("resilience.retries", float64(trPh.after.api.Resilience.Retries), "count")
	return nil
}
