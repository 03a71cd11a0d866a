package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The load generator runs as its own process, so its CPU and garbage do
// not share a runtime with the server or the orchestrator. It holds one
// ingest connection (reads and /metrics scrapes share it) plus one SSE
// subscription: at most two connections, the core count of the box the
// benchmark was sized on.

// genConfig is the generator's input, JSON on its stdin.
type genConfig struct {
	Addr     string `json:"addr"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// FirstReq is the plan index of the first request sent.
	FirstReq int `json:"first_req"`
	// Fill, when positive, sends exactly Fill requests in a closed loop
	// without subscribing or reading, then exits: the untimed phase that
	// fills a durable server's data directory.
	Fill int `json:"fill"`
	// Warm, Closed and Open are the phase lengths: an unmeasured
	// closed-loop warm-up, the measured closed loop, the measured open
	// loop at the spec's OpenRate.
	Warm   time.Duration `json:"warm"`
	Closed time.Duration `json:"closed"`
	Open   time.Duration `json:"open"`
}

const (
	phaseWarm = iota
	phaseClosed
	phaseOpen
)

// opRec is one HTTP operation. Times are nanoseconds since the generator
// started; Intended is the scheduled send time in the open loop and the
// actual send time in a closed loop.
type opRec struct {
	K        int   `json:"k"`
	Phase    int   `json:"phase"`
	Intended int64 `json:"intended"`
	Sent     int64 `json:"sent"`
	Done     int64 `json:"done"`
	OK       bool  `json:"ok"`
	Accepted int   `json:"accepted"`
}

// evRec is one SSE anomaly frame as received.
type evRec struct {
	Stream  string  `json:"stream"`
	Pos     int     `json:"pos"`
	Length  int     `json:"length"`
	Density float64 `json:"density"`
	Recv    int64   `json:"recv"`
}

// genReport is the generator's output, JSON on its stdout.
type genReport struct {
	Ingests        []opRec `json:"ingests"`
	Reads          []opRec `json:"reads"`
	Scrapes        []opRec `json:"scrapes"`
	Events         []evRec `json:"events"`
	HealthFrames   int     `json:"health_frames"`
	ClosedStart    int64   `json:"closed_start"`
	ClosedEnd      int64   `json:"closed_end"`
	OpenStart      int64   `json:"open_start"`
	OpenEnd        int64   `json:"open_end"`
	IngestedTotal  float64 `json:"ingested_total"`
	MemoryBytes    float64 `json:"memory_bytes"`
	MaxOutstanding int     `json:"max_outstanding"`
}

func genMain(stdin io.Reader, stdout io.Writer) error {
	var cfg genConfig
	if err := json.NewDecoder(stdin).Decode(&cfg); err != nil {
		return fmt.Errorf("gen config: %w", err)
	}
	spec, ok := ingestSpecs[cfg.Workload]
	if !ok {
		return fmt.Errorf("gen: unknown workload %q", cfg.Workload)
	}
	p, err := newPlan(spec, cfg.Seed)
	if err != nil {
		return err
	}
	g := &generator{
		cfg: cfg, spec: spec, plan: p, start: time.Now(), base: "http://" + cfg.Addr,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
		dead: make([]bool, spec.Streams),
	}
	rep, err := g.run()
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(rep)
}

type generator struct {
	cfg    genConfig
	spec   ingestSpec
	plan   *plan
	start  time.Time
	base   string
	client *http.Client

	k          int    // next plan index
	dead       []bool // streams whose ingest failed; later slots are skipped
	deadCount  int
	ingests    int // ingests sent, for the read cadence
	reads      int // reads sent; they visit the streams in turn
	nextScrape int64
	pts        []float64
	body       []byte
	rep        genReport
}

func (g *generator) now() int64 { return int64(time.Since(g.start)) }

func (g *generator) run() (*genReport, error) {
	if g.cfg.Fill > 0 {
		g.k = g.cfg.FirstReq
		for i := 0; i < g.cfg.Fill; i++ {
			t := g.now()
			if err := g.ingest(phaseWarm, t); err != nil {
				return nil, err
			}
		}
		return &g.rep, nil
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sse, err := g.subscribe(ctx)
	if err != nil {
		return nil, err
	}

	g.k = g.cfg.FirstReq
	g.nextScrape = g.now()
	if err := g.closedLoop(phaseWarm, g.cfg.Warm); err != nil {
		return nil, err
	}
	g.rep.ClosedStart = g.now()
	if err := g.closedLoop(phaseClosed, g.cfg.Closed); err != nil {
		return nil, err
	}
	g.rep.ClosedEnd = g.now()
	if err := g.openLoop(); err != nil {
		return nil, err
	}

	// Events are published before the push that confirms them is acked,
	// so once the SSE connection has been quiet for a while every event
	// of an acked push has arrived.
	quietSince := g.now()
	for deadline := g.now() + int64(5*time.Second); g.now() < deadline; {
		time.Sleep(20 * time.Millisecond)
		if last := sse.lastRecv(); last > quietSince {
			quietSince = last
		}
		if g.now()-quietSince > int64(300*time.Millisecond) {
			break
		}
	}
	text, err := g.get("/metrics")
	if err != nil {
		return nil, fmt.Errorf("final /metrics scrape: %w", err)
	}
	if g.rep.IngestedTotal, err = promValue(text, "egi_ingest_points_total"); err != nil {
		return nil, err
	}
	if g.rep.MemoryBytes, err = promValue(text, "egi_memory_bytes"); err != nil {
		return nil, err
	}
	cancel()
	g.rep.Events, g.rep.HealthFrames, err = sse.wait()
	if err != nil {
		return nil, err
	}
	return &g.rep, nil
}

// closedLoop sends each request as soon as the previous one completed.
func (g *generator) closedLoop(phase int, d time.Duration) error {
	end := g.now() + int64(d)
	for g.now() < end {
		if err := g.step(phase, g.now()); err != nil {
			return err
		}
	}
	return nil
}

// openLoop sends ingest i at OpenStart + i/OpenRate whether or not
// earlier requests have completed; on the single connection a request
// that is due while another is in flight waits, and its latency counts
// from its due time.
func (g *generator) openLoop() error {
	interval := float64(time.Second) / g.spec.OpenRate
	g.rep.OpenStart = g.now()
	end := g.rep.OpenStart + int64(g.cfg.Open)
	for i := 0; ; i++ {
		intended := g.rep.OpenStart + int64(float64(i)*interval)
		if intended >= end {
			break
		}
		for wait := intended - g.now(); wait > 0; wait = intended - g.now() {
			nanosleep(time.Duration(wait))
		}
		due := int(float64(g.now()-g.rep.OpenStart)/interval) + 1
		if out := due - i; out > g.rep.MaxOutstanding {
			g.rep.MaxOutstanding = out
		}
		if err := g.step(phaseOpen, intended); err != nil {
			return err
		}
	}
	g.rep.OpenEnd = end
	return nil
}

// nanosleep sleeps for d in nanosleep(2): time.Sleep wakes through the
// runtime's millisecond-resolution poller, which overshoots a
// sub-millisecond wait by about 0.7 ms — lateness that would count as
// server latency in the open loop.
func nanosleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // EINTR only cuts the sleep short
}

// step sends one ingest, then the read or scrape that falls due after it.
// A scrape is due once a second.
func (g *generator) step(phase int, intended int64) error {
	if err := g.ingest(phase, intended); err != nil {
		return err
	}
	if phase != phaseOpen && g.ingests%g.spec.ReadEvery == 0 {
		g.read(phase, g.reads%g.spec.Streams)
	}
	if g.now() >= g.nextScrape {
		g.nextScrape += int64(time.Second)
		t := g.now()
		_, err := g.get("/metrics")
		g.rep.Scrapes = append(g.rep.Scrapes, opRec{K: -1, Phase: phase, Intended: t, Sent: t, Done: g.now(), OK: err == nil})
	}
	return nil
}

// ingest sends plan request g.k, skipping streams whose ingest failed
// earlier (the oracle could no longer follow them). A failed or refused
// request is recorded, not returned; the run stops only when every
// stream has failed, or when a fill request fails.
func (g *generator) ingest(phase int, intended int64) error {
	for {
		if s, _ := g.plan.locate(g.k); !g.dead[s] {
			break
		}
		if g.deadCount == len(g.dead) {
			return errors.New("every stream's ingest failed")
		}
		g.k++
	}
	stream, pts := g.plan.request(g.k, g.pts[:0])
	g.pts = pts
	g.body = encodeBody(g.body, pts, g.spec.NDJSON)
	ct := "application/x-ndjson"
	if !g.spec.NDJSON {
		ct = "application/json"
	}
	rec := opRec{K: g.k, Phase: phase, Intended: intended, Sent: g.now()}
	resp, err := g.client.Post(g.base+"/v1/streams/"+streamID(stream)+"/points", ct, bytes.NewReader(g.body))
	if err == nil {
		var ack struct {
			Pushed   *int `json:"pushed"`
			Accepted int  `json:"accepted"`
		}
		err = json.NewDecoder(resp.Body).Decode(&ack)
		// Drain to EOF so the connection is reused: the generator holds
		// exactly one.
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		rec.OK = err == nil && resp.StatusCode == http.StatusOK && ack.Pushed != nil && *ack.Pushed == len(pts)
		rec.Accepted = ack.Accepted
		if ack.Pushed != nil {
			rec.Accepted = *ack.Pushed
		}
	}
	rec.Done = g.now()
	if !rec.OK && !g.dead[stream] {
		g.dead[stream] = true
		g.deadCount++
	}
	g.rep.Ingests = append(g.rep.Ingests, rec)
	g.k++
	g.ingests++
	if g.cfg.Fill > 0 && !rec.OK {
		return fmt.Errorf("fill request %d failed: %v", rec.K, err)
	}
	return nil
}

// read fetches one stream's stats and top-K, or its replay from disk.
func (g *generator) read(phase, stream int) {
	path := "/v1/streams/" + streamID(stream)
	if g.spec.Durable {
		path += "/replay"
	}
	t := g.now()
	body, err := g.get(path)
	ok := err == nil
	if ok && g.spec.Durable {
		// The last NDJSON line is the replay summary.
		lines := strings.Split(strings.TrimSpace(body), "\n")
		ok = strings.Contains(lines[len(lines)-1], `"done":true`)
	}
	g.rep.Reads = append(g.rep.Reads, opRec{K: -1, Phase: phase, Intended: t, Sent: t, Done: g.now(), OK: ok})
	g.reads++
}

func (g *generator) get(path string) (string, error) {
	resp, err := g.client.Get(g.base + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return string(b), nil
}

// promValue returns an unlabelled sample's value from a text exposition.
func promValue(text, name string) (float64, error) {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return math.NaN(), fmt.Errorf("/metrics has no %s sample", name)
}

// sseReader consumes the event firehose on its own connection.
type sseReader struct {
	mu     sync.Mutex
	events []evRec
	health int
	last   int64
	err    error
	done   chan struct{}
}

// subscribe opens GET /v1/events and returns once the server has
// registered the subscription (response headers received), so no event
// of a later push can be missed.
func (g *generator) subscribe(ctx context.Context) (*sseReader, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.base+"/v1/events", nil)
	if err != nil {
		return nil, err
	}
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("subscribing to events: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("subscribing to events: %s", resp.Status)
	}
	r := &sseReader{done: make(chan struct{})}
	go func() {
		defer close(r.done)
		defer resp.Body.Close()
		err := parseSSE(resp.Body, func(kind string, data []byte) error {
			t := g.now()
			r.mu.Lock()
			defer r.mu.Unlock()
			r.last = t
			switch kind {
			case "anomaly":
				ev := evRec{Recv: t}
				if err := json.Unmarshal(data, &ev); err != nil {
					return fmt.Errorf("anomaly frame %q: %w", data, err)
				}
				r.events = append(r.events, ev)
			case "health":
				r.health++
			}
			return nil
		})
		if ctx.Err() == nil {
			r.mu.Lock()
			r.err = err
			if r.err == nil {
				r.err = errors.New("event stream ended before the run did")
			}
			r.mu.Unlock()
		}
	}()
	return r, nil
}

func (r *sseReader) lastRecv() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.last
}

// wait returns once the reader goroutine has exited (after the context
// was canceled).
func (r *sseReader) wait() ([]evRec, int, error) {
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.events, r.health, r.err
}

// parseSSE calls fn with each frame's event name and data.
func parseSSE(body io.Reader, fn func(kind string, data []byte) error) error {
	sc := bufio.NewScanner(body)
	kind := ""
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			kind = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			if err := fn(kind, line[len("data: "):]); err != nil {
				return err
			}
		case len(line) == 0:
			kind = ""
		}
	}
	return sc.Err()
}
