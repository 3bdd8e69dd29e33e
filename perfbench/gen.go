package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"aryn/internal/ntsb"
	"aryn/internal/qa"
	"aryn/internal/server/api"
)

// Request is one generated query: the HTTP body the server receives plus
// the decoded fields the in-process paths call the layers with.
type Request struct {
	// Key names the request for the oracles: "q07" for the seventh NTSB
	// question, "p3-chain" for the fourth scan plan.
	Key      string
	Question string
	Plan     json.RawMessage
	Optimize *bool
	// QA indexes qa.Questions for graded questions (-1 for plans).
	QA int
	// Body is the JSON body of POST /v1/query.
	Body []byte
}

// Inputs is everything a workload sends, made from the seed alone.
type Inputs struct {
	Seed   int64
	Corpus *ntsb.Corpus
	// Blobs is the base corpus, keyed by document ID.
	Blobs map[string][]byte
	// Questions are the paper's NTSB questions over Corpus.
	Questions []qa.Question
	// Requests is the workload's distinct request set.
	Requests []Request
	// zipf orders Requests by popularity for the warm draws.
	zipf []int
}

// corpusSeed generates every workload's base corpus. The paper's
// questions are written against the corpus, and which of them are cheap
// or expensive to answer shifts from corpus to corpus by up to tenfold, so
// a per-seed corpus would move the latency medians more than any change
// worth measuring. The run seed varies everything sent on top of it: the
// order of each cold pass, the warm draws, and the ingested documents.
const corpusSeed = 42

// corpusDocs is the base corpus size per workload.
var corpusDocs = map[string]int{
	"qa-cold":      48,
	"scan-cold":    200,
	"repeat-warm":  200,
	"ingest-mixed": 200,
}

// jobDocs is the document count of one ingest-mixed job.
const jobDocs = 16

// The llmFilter predicates of the scan plans. On the corpusSeed corpus
// each selective one keeps 4-40% of the reports and each broad one 75% or
// more, so plans led by a broad predicate stream results early. Only the
// group-by and the join share a predicate: when the two clients run them
// at once, identical prompts are in flight together, which is where
// singleflight and the memo must keep to one upstream call per prompt.
const (
	pFuel     = "Does the report mention fuel?"
	pBirds    = "Does the report mention birds?"
	pEngine   = "Does the report mention an engine problem?"
	pPilot    = "Does the report mention the pilot?"
	pAirplane = "Does the report mention the airplane?"
	pWeather  = "Does the report mention the weather?"
	pFlight   = "Does the report mention the flight?"
	pAircraft = "Does the report mention the aircraft?"
)

// Generate builds the inputs of a workload from its seed.
func Generate(workload string, seed int64) (*Inputs, error) {
	n, ok := corpusDocs[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	corpus, err := ntsb.GenerateCorpus(n, corpusSeed)
	if err != nil {
		return nil, err
	}
	blobs, err := corpus.Blobs()
	if err != nil {
		return nil, err
	}
	in := &Inputs{Seed: seed, Corpus: corpus, Blobs: blobs, Questions: qa.Questions(corpus)}
	switch workload {
	case "qa-cold":
		in.Requests = questionRequests(in.Questions)
	case "scan-cold":
		in.Requests = scanPlans(corpus)
	default:
		plans := scanPlans(corpus)
		in.Requests = append(questionRequests(in.Questions), plans...)
		in.zipf = popularity(in.Questions, len(plans))
	}
	return in, nil
}

func questionRequests(qs []qa.Question) []Request {
	out := make([]Request, len(qs))
	for i, q := range qs {
		out[i] = Request{Key: fmt.Sprintf("q%02d", q.ID), Question: q.Text, QA: i}
		out[i].Body = mustJSON(api.QueryRequest{Question: q.Text})
	}
	return out
}

// scanPlans builds one plan of every shape the optimizer rewrites: a
// single predicate, a predicate chain, a trailing basic filter to hoist,
// a group-by, and a join DAG, plus two plans that return their documents.
// Four of the seven lead with a broad predicate and stream results early,
// so the time-to-first-result median falls among them rather than between
// them and the barrier plans. The plans are the same for every seed.
func scanPlans(corpus *ntsb.Corpus) []Request {
	shapes := []struct{ name, plan string }{
		{"single", fmt.Sprintf(`{"ops":[{"op":"queryDatabase"},{"op":"llmFilter","question":%q},{"op":"count"}]}`, pWeather)},
		{"chain", fmt.Sprintf(`{"ops":[{"op":"queryDatabase"},{"op":"llmFilter","question":%q},{"op":"llmFilter","question":%q},{"op":"count"}]}`, pPilot, pFuel)},
		{"hoist", fmt.Sprintf(`{"ops":[{"op":"queryDatabase"},{"op":"llmFilter","question":%q},{"op":"basicFilter","filters":[{"field":"aircraftDamage","kind":"term","value":"Substantial"}]},{"op":"count"}]}`, pFlight)},
		{"groupby", fmt.Sprintf(`{"ops":[{"op":"queryDatabase"},{"op":"llmFilter","question":%q},{"op":"groupByAggregate","key":"us_state","agg":"count"}]}`, pBirds)},
		{"join", fmt.Sprintf(`{"nodes":[{"id":"a","op":"queryDatabase"},{"id":"b","inputs":["a"],"op":"llmFilter","question":%q},{"id":"c","inputs":["a"],"op":"llmFilter","question":%q},{"id":"d","inputs":["b","c"],"op":"join","left_key":"accidentNumber","right_key":"accidentNumber"},{"id":"e","inputs":["d"],"op":"count"}],"output":"e"}`, pBirds, pEngine)},
		{"stream", fmt.Sprintf(`{"ops":[{"op":"queryDatabase"},{"op":"llmFilter","question":%q}]}`, pAirplane)},
		{"stream-state", fmt.Sprintf(`{"ops":[{"op":"queryDatabase"},{"op":"llmFilter","question":%q},{"op":"basicFilter","filters":[{"field":"us_state","kind":"term","value":%q}]}]}`, pAircraft, topState(corpus))},
	}
	yes := true
	out := make([]Request, len(shapes))
	for i, sh := range shapes {
		key := fmt.Sprintf("p%d-%s", i, sh.name)
		out[i] = Request{Key: key, Question: key, Plan: json.RawMessage(sh.plan), Optimize: &yes, QA: -1}
		out[i].Body = mustJSON(api.QueryRequest{Question: key, Plan: out[i].Plan, Optimize: &yes})
	}
	return out
}

// topState is the corpus's most frequent state (the alphabetically first
// on ties), so the state-filtered plan keeps a similar share every seed.
func topState(corpus *ntsb.Corpus) string {
	counts := map[string]int{}
	best := ""
	for i := range corpus.Incidents {
		s := corpus.Incidents[i].StateAbbrev()
		counts[s]++
		if best == "" || counts[s] > counts[best] || (counts[s] == counts[best] && s < best) {
			best = s
		}
	}
	return best
}

// hotQuestions are the question IDs the warm draws rank hottest: the
// sixteen whose warm answer costs a few milliseconds on the corpusSeed
// corpus. The other fourteen cost 5 to 200 ms, and a plan, whose warm
// scan streams up to every report over SSE, 100 to 400 ms.
var hotQuestions = []int{1, 3, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 20, 21, 26, 30}

// popularity ranks the warm request set for the Zipf draw: the hot
// questions first, then the other questions alternating with the plans.
// The hot questions take three quarters of the traffic, so the latency
// median falls inside one cluster of similar requests instead of in a gap
// between clusters, where it would jump with each run's exact mix; the
// plans take a tenth, enough to hold the 95th percentile.
func popularity(questions []qa.Question, plans int) []int {
	hot := map[int]bool{}
	for _, id := range hotQuestions {
		hot[id] = true
	}
	var out, rest []int
	for i, q := range questions {
		if hot[q.ID] {
			out = append(out, i)
		} else {
			rest = append(rest, i)
		}
	}
	for i := 0; i < max(len(rest), plans); i++ {
		if i < len(rest) {
			out = append(out, rest[i])
		}
		if i < plans {
			out = append(out, len(questions)+i)
		}
	}
	return out
}

// PassOrder is the seeded order in which cold pass number pass sends the
// request set.
func (in *Inputs) PassOrder(pass int) []int {
	return rand.New(rand.NewSource(in.Seed*7877 + int64(pass))).Perm(len(in.Requests))
}

// unoptimized returns the request with the optimize phase forced off —
// the scan-cold oracle's reference run.
func (r Request) unoptimized() Request {
	no := false
	c := r
	c.Optimize = &no
	c.Body = mustJSON(api.QueryRequest{Question: r.Question, Plan: r.Plan, Optimize: &no})
	return c
}

// zipfS and zipfV shape the warm draws, P(rank k) ∝ (zipfV+k)^-zipfS:
// over the 37 warm requests the hottest takes about an eighth of the
// traffic and the coldest under 1%.
const (
	zipfS = 1.2
	zipfV = 4
)

// deckSize is how many draws of each transport one deal of the warm deck
// holds.
const deckSize = 100

// draw is one deck entry: a request and whether to send it over SSE.
type draw struct {
	req int
	sse bool
}

// Drawer is one client's seeded stream of warm requests. It deals from a
// deck holding each request as often as its Zipf weight says (at least
// once) over JSON and as often again over SSE, shuffled with the client's
// seed and reshuffled every deal. A run of a few deals so carries the Zipf
// mix, and each request's transport split, almost exactly instead of as a
// random sample: the latency median would otherwise move with the
// sample's share of expensive requests, and a streaming plan costs several
// times more over SSE, where every result document is sent.
type Drawer struct {
	in   *Inputs
	rng  *rand.Rand
	deck []draw
	next int
}

// NewDrawer starts client's draw stream.
func (in *Inputs) NewDrawer(client int) *Drawer {
	weights := make([]float64, len(in.zipf))
	total := 0.0
	for k := range weights {
		weights[k] = math.Pow(zipfV+float64(k), -zipfS)
		total += weights[k]
	}
	d := &Drawer{in: in, rng: rand.New(rand.NewSource(in.Seed*1000003 + int64(client) + 1))}
	for k, w := range weights {
		for c := max(1, int(math.Round(w/total*deckSize))); c > 0; c-- {
			d.deck = append(d.deck, draw{in.zipf[k], false}, draw{in.zipf[k], true})
		}
	}
	d.next = len(d.deck)
	return d
}

// Next returns the next request and whether to send it over SSE.
func (d *Drawer) Next() (Request, bool) {
	if d.next == len(d.deck) {
		d.rng.Shuffle(len(d.deck), func(i, j int) { d.deck[i], d.deck[j] = d.deck[j], d.deck[i] })
		d.next = 0
	}
	dr := d.deck[d.next]
	d.next++
	return d.in.Requests[dr.req], dr.sse
}

// Job is one ingest-mixed upload: generated reports under fresh IDs.
type Job struct {
	Blobs map[string][]byte
	Body  []byte
}

// Job returns the i-th ingest job of the run (0-based).
func (in *Inputs) Job(i int) (Job, error) {
	c, err := ntsb.GenerateCorpus(jobDocs, in.Seed*7919+int64(i)+1)
	if err != nil {
		return Job{}, err
	}
	raw, err := c.Blobs()
	if err != nil {
		return Job{}, err
	}
	blobs := map[string][]byte{}
	for id, blob := range raw {
		blobs[fmt.Sprintf("ing%d-%d-%s", in.Seed, i, id)] = blob
	}
	return newJob(blobs), nil
}

// newJob wraps blobs in the POST /v1/ingest body.
func newJob(blobs map[string][]byte) Job {
	enc := make(map[string]string, len(blobs))
	for id, blob := range blobs {
		enc[id] = base64.StdEncoding.EncodeToString(blob)
	}
	return Job{Blobs: blobs, Body: mustJSON(api.IngestRequest{Blobs: enc})}
}

// Fingerprint serializes every generated input a run can send — the base
// corpus, the request set, each client's first draws and the first ingest
// jobs — so tests can assert that a seed fixes them byte for byte.
func (in *Inputs) Fingerprint(draws, jobs int) ([]byte, error) {
	var b bytes.Buffer
	ids := make([]string, 0, len(in.Blobs))
	for id := range in.Blobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(&b, "blob %s %x\n", id, in.Blobs[id])
	}
	for _, r := range in.Requests {
		fmt.Fprintf(&b, "req %s %s\n", r.Key, r.Body)
	}
	for pass := 0; pass < 3; pass++ {
		fmt.Fprintf(&b, "pass %d %v\n", pass, in.PassOrder(pass))
	}
	if in.zipf != nil {
		for c := 0; c < 2; c++ {
			d := in.NewDrawer(c)
			for i := 0; i < draws; i++ {
				r, sse := d.Next()
				fmt.Fprintf(&b, "draw %d %s %v\n", c, r.Key, sse)
			}
		}
	}
	for i := 0; i < jobs; i++ {
		j, err := in.Job(i)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, "job %d %s\n", i, j.Body)
	}
	return b.Bytes(), nil
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and valid raw JSON reach here
	}
	return data
}
