package main

import (
	"bytes"
	"testing"
)

func fingerprint(t *testing.T, workload string, seed int64) []byte {
	t.Helper()
	in, err := Generate(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := in.Fingerprint(200, 3)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func TestGeneratorIsFixedBySeed(t *testing.T) {
	for w := range corpusDocs {
		a, b := fingerprint(t, w, 11), fingerprint(t, w, 11)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 11 generated different inputs on two calls", w)
		}
		if c := fingerprint(t, w, 12); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 11 and 12 generated identical inputs", w)
		}
	}
}

func TestGeneratedRequests(t *testing.T) {
	in, err := Generate("repeat-warm", 5)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, r := range in.Requests {
		if keys[r.Key] {
			t.Errorf("duplicate request key %s", r.Key)
		}
		keys[r.Key] = true
	}
	if len(in.Requests) != len(in.Questions)+7 {
		t.Errorf("%d requests, want the %d questions plus 7 plans", len(in.Requests), len(in.Questions))
	}
	d := in.NewDrawer(0)
	// One deal carries every request over each transport equally often.
	overSSE := map[string]int{}
	for i := 0; i < len(d.deck); i++ {
		r, sse := d.Next()
		if sse {
			overSSE[r.Key]++
		} else {
			overSSE[r.Key]--
		}
	}
	for key, n := range overSSE {
		if n != 0 {
			t.Errorf("%s: %d more SSE than JSON draws in one deal", key, n)
		}
	}
	j0, err := in.Job(0)
	if err != nil {
		t.Fatal(err)
	}
	j1, err := in.Job(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(j0.Blobs) != jobDocs {
		t.Errorf("job has %d blobs, want %d", len(j0.Blobs), jobDocs)
	}
	for id := range j0.Blobs {
		if _, clash := j1.Blobs[id]; clash {
			t.Errorf("jobs 0 and 1 share document ID %s", id)
		}
		if _, clash := in.Blobs[id]; clash {
			t.Errorf("job 0 reuses base-corpus document ID %s", id)
		}
	}
}

func TestParseAnswerInvertsString(t *testing.T) {
	for _, c := range []struct{ kind, text string }{
		{"number", "42"},
		{"number", "0.375"},
		{"table", "AK=3, CA=12"},
		{"list", "a, b, c"},
		{"text", "free text"},
	} {
		if got := parseAnswer(c.kind, c.text); got.String() != c.text || string(got.Kind) != c.kind {
			t.Errorf("parseAnswer(%s, %q) = %s %q", c.kind, c.text, got.Kind, got.String())
		}
	}
}

func TestPopularityRanksEveryRequestOnce(t *testing.T) {
	in, err := Generate("repeat-warm", 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, i := range in.zipf {
		if seen[i] {
			t.Fatalf("request %d ranked twice", i)
		}
		seen[i] = true
	}
	if len(seen) != len(in.Requests) {
		t.Fatalf("%d of %d requests ranked", len(seen), len(in.Requests))
	}
	if first := in.Requests[in.zipf[0]]; first.Key != "q01" {
		t.Errorf("hottest request %s, want q01", first.Key)
	}
	for rank, i := range in.zipf {
		after := rank - len(hotQuestions)
		if isPlan := in.Requests[i].QA == -1; isPlan != (after > 0 && after%2 == 1 && after/2 < 7) {
			t.Errorf("rank %d holds %s", rank, in.Requests[i].Key)
		}
	}
}
