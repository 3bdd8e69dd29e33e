package main

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"aryn/internal/core"
	"aryn/internal/luna"
	"aryn/internal/qa"
)

// parseAnswer turns a served answer back into the typed answer qa.Grade
// expects, inverting luna.Answer.String for each kind.
func parseAnswer(kind, text string) luna.Answer {
	switch luna.AnswerKind(kind) {
	case luna.AnswerNumber:
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return luna.TextAnswer(text)
		}
		return luna.NumberAnswer(v)
	case luna.AnswerTable:
		t := map[string]float64{}
		if text != "" {
			for _, part := range strings.Split(text, ", ") {
				k, v, ok := strings.Cut(part, "=")
				f, err := strconv.ParseFloat(v, 64)
				if !ok || err != nil {
					return luna.TextAnswer(text)
				}
				t[k] = f
			}
		}
		return luna.TableAnswer(t)
	case luna.AnswerList:
		if text == "" {
			return luna.ListAnswer()
		}
		return luna.ListAnswer(strings.Split(text, ", ")...)
	default:
		return luna.TextAnswer(text)
	}
}

// gradeQA grades a served answer against its question's ground truth.
func gradeQA(in *Inputs, req Request, o Outcome) bool {
	q := in.Questions[req.QA]
	return qa.Grade(q, parseAnswer(o.Kind, o.Answer), q.GT(in.Corpus)) == qa.Correct
}

// replay is the ingest-mixed oracle: a zero-latency system with the same
// seed ingests the base corpus and then each job in order, and answers
// the requests the measured run saw at each corpus state. LLM output
// depends only on the prompt, so the replay's answers are the measured
// system's answers at the same state.
type replay struct {
	// answers[s][key] is the answer signature at state s (s jobs done).
	answers []map[string]string
	// docs/chunks[i] are the store totals after job i.
	docs, chunks []int
	// jobTokens[i] is job i's upstream spend.
	jobTokens []int
}

// runReplay replays jobs 0..states-1 and answers need[s] at each state s.
func runReplay(ctx context.Context, in *Inputs, byKey map[string]Request, need []map[string]bool) (*replay, error) {
	sys := core.New(systemConfig(0))
	if _, err := sys.Ingest(ctx, in.Blobs); err != nil {
		return nil, fmt.Errorf("replay: base ingest: %w", err)
	}
	d := serviceDoer{sys: sys}
	rp := &replay{}
	for s := 0; s < len(need); s++ {
		if s > 0 {
			job, err := in.Job(s - 1)
			if err != nil {
				return nil, err
			}
			before := sys.LLM.Usage()
			st, err := sys.Ingest(ctx, job.Blobs)
			if err != nil {
				return nil, fmt.Errorf("replay: job %d: %w", s-1, err)
			}
			rp.jobTokens = append(rp.jobTokens, sys.LLM.Usage().Sub(before).Total())
			rp.docs = append(rp.docs, st.Documents)
			rp.chunks = append(rp.chunks, st.Chunks)
		}
		ans := map[string]string{}
		for key := range need[s] {
			o := d.Query(ctx, byKey[key], false)
			if o.Err != nil {
				return nil, fmt.Errorf("replay: state %d: %w", s, o.Err)
			}
			ans[key] = o.Sig
		}
		rp.answers = append(rp.answers, ans)
	}
	return rp, nil
}
