package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"aryn/internal/core"
	"aryn/internal/llm"
	"aryn/internal/resilience"
	"aryn/internal/server"
	"aryn/internal/server/api"
)

// rtt is the modelled round-trip of one upstream LLM dispatch.
const rtt = 20 * time.Millisecond

// systemConfig is the core configuration arynd serves with, plus the
// modelled round-trip. rtt 0 builds the zero-latency reference system the
// oracles replay against.
func systemConfig(rtt time.Duration) core.Config {
	cfg := core.Config{Seed: 7, Parallelism: 8, Resilience: &resilience.Options{}}
	if rtt > 0 {
		cfg.LLMOptions = []llm.SimOption{llm.WithLatency(rtt)}
	}
	return cfg
}

// Rig is one booted system served over a loopback listener.
type Rig struct {
	Sys    *core.System
	srv    *server.Server
	hs     *http.Server
	served chan struct{}
	base   string
	client *http.Client
}

// boot starts a fresh system behind an HTTP listener on 127.0.0.1.
func boot() (*Rig, error) {
	sys := core.New(systemConfig(rtt))
	srv := server.New(sys, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	r := &Rig{
		Sys:    sys,
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true}},
	}
	go func() {
		defer close(r.served)
		_ = r.hs.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	return r, nil
}

// Close stops the listener, waits for the serve loop and the server's
// background workers to exit, and drops idle client connections.
func (r *Rig) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.hs.Shutdown(ctx); err != nil {
		_ = r.hs.Close()
	}
	<-r.served
	r.srv.Close()
	r.client.CloseIdleConnections()
}

// Outcome is one finished query as a client saw it.
type Outcome struct {
	Key string
	// Sig is the answer signature the oracles compare: kind, rendered
	// answer and result-document count.
	Sig    string
	Kind   string
	Answer string
	Docs   int
	// Latency is send → full JSON body or terminal SSE result; TTFR is
	// send → first partial or terminal result (Latency for JSON).
	Latency, TTFR time.Duration
	// Events counts SSE events received (0 for JSON).
	Events   int
	SSE      bool
	Shed     bool
	Degraded bool
	Err      error
}

// failed reports whether the outcome counts against ok_frac.
func (o Outcome) failed() bool { return o.Err != nil || o.Shed || o.Degraded }

func signature(kind, answer string, docs int) string {
	return fmt.Sprintf("%s|%s|docs=%d", kind, answer, docs)
}

// JobOutcome is one finished ingest job.
type JobOutcome struct {
	Docs            int
	Elapsed         time.Duration
	Documents       int
	Chunks          int
	Err             error
	Stages          []stageTime // in-process runs only
	PipelineElapsed time.Duration
}

// stageTime is one ingest pipeline stage's busy time.
type stageTime struct {
	Name string
	Busy time.Duration
	In   int64
}

// httpDoer sends requests to the served system.
type httpDoer struct{ r *Rig }

func (d httpDoer) Query(ctx context.Context, req Request, sse bool) Outcome {
	out := Outcome{Key: req.Key, SSE: sse}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, d.r.base+"/v1/query", bytes.NewReader(req.Body))
	if err != nil {
		out.Err = err
		return out
	}
	hreq.Header.Set("Content-Type", "application/json")
	if sse {
		hreq.Header.Set("Accept", "text/event-stream")
	}
	start := time.Now()
	resp, err := d.r.client.Do(hreq)
	if err != nil {
		out.Err = err
		return out
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		out.Shed = resp.StatusCode == http.StatusTooManyRequests
		out.Err = fmt.Errorf("%s: status %d", req.Key, resp.StatusCode)
		return out
	}
	var qr api.QueryResponse
	if !sse {
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			out.Err = fmt.Errorf("%s: decode: %w", req.Key, err)
			return out
		}
		out.Latency = time.Since(start)
		out.TTFR = out.Latency
	} else {
		partialDocs := 0
		err := readSSE(resp.Body, func(event string, data []byte) (bool, error) {
			out.Events++
			switch event {
			case api.EventPartial:
				if out.TTFR == 0 {
					out.TTFR = time.Since(start)
				}
				var pe api.PartialEvent
				if err := json.Unmarshal(data, &pe); err != nil {
					return false, err
				}
				partialDocs += pe.Count
			case api.EventResult:
				out.Latency = time.Since(start)
				if out.TTFR == 0 {
					out.TTFR = out.Latency
				}
				return true, json.Unmarshal(data, &qr)
			case api.EventError:
				return true, fmt.Errorf("error event: %s", data)
			}
			return false, nil
		})
		if err == nil && out.Latency == 0 {
			err = errors.New("stream ended without a result event")
		}
		if err == nil && !qr.Degraded && partialDocs != qr.Docs {
			err = fmt.Errorf("partial events carried %d docs, result says %d", partialDocs, qr.Docs)
		}
		if err != nil {
			out.Err = fmt.Errorf("%s: %w", req.Key, err)
			return out
		}
	}
	out.Kind, out.Answer, out.Docs, out.Degraded = qr.Kind, qr.Answer, qr.Docs, qr.Degraded
	out.Sig = signature(qr.Kind, qr.Answer, qr.Docs)
	return out
}

func (d httpDoer) Ingest(ctx context.Context, job Job) JobOutcome {
	out := JobOutcome{Docs: len(job.Blobs)}
	start := time.Now()
	var acc api.JobAccepted
	status, err := d.r.do(ctx, http.MethodPost, "/v1/ingest", job.Body, &acc)
	if err == nil && status != http.StatusAccepted {
		err = fmt.Errorf("ingest: status %d", status)
	}
	if err != nil {
		out.Err = err
		return out
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, d.r.base+acc.Location, nil)
	if err != nil {
		out.Err = err
		return out
	}
	hreq.Header.Set("Accept", "text/event-stream")
	resp, err := d.r.client.Do(hreq)
	if err != nil {
		out.Err = err
		return out
	}
	defer resp.Body.Close()
	var jr api.JobResponse
	err = readSSE(resp.Body, func(event string, data []byte) (bool, error) {
		if event != api.EventResult {
			return false, nil
		}
		return true, json.Unmarshal(data, &jr)
	})
	out.Elapsed = time.Since(start)
	switch {
	case err != nil:
		out.Err = fmt.Errorf("job %s: %w", acc.JobID, err)
	case jr.State != api.JobDone || jr.Result == nil:
		out.Err = fmt.Errorf("job %s ended %s: %+v", acc.JobID, jr.State, jr.Error)
	default:
		out.Documents, out.Chunks = jr.Result.Documents, jr.Result.Chunks
	}
	return out
}

// stats fetches GET /v1/stats.
func (r *Rig) stats(ctx context.Context) (api.StatsResponse, error) {
	var st api.StatsResponse
	status, err := r.do(ctx, http.MethodGet, "/v1/stats", nil, &st)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("stats: status %d", status)
	}
	return st, err
}

// do sends one JSON request and decodes the JSON response into v.
func (r *Rig) do(ctx context.Context, method, path string, body []byte, v any) (int, error) {
	hreq, err := http.NewRequestWithContext(ctx, method, r.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(hreq)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: decode: %w", method, path, err)
	}
	return resp.StatusCode, nil
}

// readSSE feeds each event of a text/event-stream body to fn until fn
// reports done, fails, or the stream ends.
func readSSE(body io.Reader, fn func(event string, data []byte) (bool, error)) error {
	br := bufio.NewReaderSize(body, 64<<10)
	var event string
	var data []byte
	for {
		line, err := br.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			// A long data line: gather the rest of it.
			head := append([]byte(nil), line...)
			var rest []byte
			rest, err = br.ReadBytes('\n')
			line = append(head, rest...)
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		s := strings.TrimRight(string(line), "\r\n")
		switch {
		case s == "":
			if event != "" {
				done, ferr := fn(event, data)
				if ferr != nil || done {
					return ferr
				}
			}
			event, data = "", nil
		case strings.HasPrefix(s, "event: "):
			event = s[len("event: "):]
		case strings.HasPrefix(s, "data: "):
			data = []byte(s[len("data: "):])
		}
	}
}
