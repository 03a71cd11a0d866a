package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"egi"
)

// The ingest workloads launch egiserve as its own process and drive it
// from a load-generator process over loopback HTTP plus one SSE
// subscription. Timed phases: a closed loop for capacity, then an open
// loop at the spec's fixed rate, after an unmeasured warm-up.
const (
	// setupTrials server starts are timed per run; the median is setup_s.
	// A start takes milliseconds, and the median of fewer spread by more
	// than a quarter between runs.
	setupTrials = 21
	// durableSetupTrials restarts over copies of the filled data
	// directory are timed per ingest-durable run.
	durableSetupTrials = 5
	// warmUp precedes the measured phases: the first seconds after start
	// run measurably slower.
	warmUp = 2 * time.Second
)

// server is one running egiserve process.
type server struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{} // closed once the process has been waited for
}

// startServer execs egiserve on a free loopback port.
func startServer(bin string, args []string, stderr io.Writer) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append(args, "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = stderr, stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting egiserve: %w", err)
	}
	s := &server{cmd: cmd, addr: addr, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // a killed server's exit status carries nothing
		close(s.exited)
	}()
	return s, nil
}

// kill ends the server with SIGKILL, as a crash would, and waits for it.
func (s *server) kill() {
	_ = s.cmd.Process.Signal(syscall.SIGKILL) // fails only if it already exited
	<-s.exited
}

// waitReady polls until ready reports true, and returns the time since
// start.
func (s *server) waitReady(start time.Time, ready func(*http.Client, string) bool) (time.Duration, error) {
	client := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	for deadline := start.Add(60 * time.Second); time.Now().Before(deadline); {
		if ready(client, "http://"+s.addr) {
			return time.Since(start), nil
		}
		select {
		case <-s.exited:
			return 0, errors.New("egiserve exited before it became ready")
		default:
		}
		// A fine poll: set-up of a fresh server takes a few milliseconds.
		nanosleep(200 * time.Microsecond)
	}
	return 0, errors.New("egiserve did not become ready within 60s")
}

func healthy(c *http.Client, base string) bool {
	resp, err := c.Get(base + "/healthz")
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// listsAll reports whether GET /v1/streams lists n streams.
func listsAll(n int) func(*http.Client, string) bool {
	return func(c *http.Client, base string) bool {
		resp, err := c.Get(base + "/v1/streams")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		var body struct {
			Streams []json.RawMessage `json:"streams"`
		}
		return resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&body) == nil && len(body.Streams) == n
	}
}

// runGen runs the load generator process and returns its report, which
// it also stores in the file keep unless keep is empty.
func runGen(cfg genConfig, timeout time.Duration, keep string, stderr io.Writer) (*genReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	in, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, self, "gen")
	cmd.Stdin, cmd.Stdout, cmd.Stderr = bytes.NewReader(in), &out, stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("load generator: %w", err)
	}
	var rep genReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("load generator report: %w", err)
	}
	if keep != "" {
		if err := os.WriteFile(keep, out.Bytes(), 0o644); err != nil {
			return nil, err
		}
	}
	return &rep, nil
}

func runIngest(cfg runConfig, spec ingestSpec, stderr io.Writer) (*outcome, error) {
	work, err := os.MkdirTemp(filepath.Dir(cfg.OutDir), "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	bin := filepath.Join(cfg.BinDir, "egiserve")
	// The loop the latencies come from gets three fifths of the run: its
	// tail needs the samples.
	closed := cfg.duration() * 2 / 5
	if spec.ClosedLatency {
		closed = cfg.duration() * 3 / 5
	}
	gcfg := genConfig{Workload: spec.Name, Seed: cfg.Seed, Warm: warmUp, Closed: closed, Open: cfg.duration() - closed}
	genTimeout := cfg.duration() + warmUp + 60*time.Second

	// Set-up: time several starts (fresh, or over a copy of the filled
	// data directory) and keep the last server for the run.
	var (
		srv    *server
		trials []float64
	)
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	if !spec.Durable {
		for i := 0; i < setupTrials; i++ {
			if srv != nil {
				srv.kill()
			}
			t0 := time.Now()
			if srv, err = startServer(bin, spec.serverArgs(), stderr); err != nil {
				return nil, err
			}
			d, err := srv.waitReady(t0, healthy)
			if err != nil {
				return nil, err
			}
			trials = append(trials, d.Seconds())
		}
	} else {
		fill := filepath.Join(work, "fill")
		if srv, err = startServer(bin, append(spec.serverArgs(), "-data-dir", fill), stderr); err != nil {
			return nil, err
		}
		if _, err := srv.waitReady(time.Now(), healthy); err != nil {
			return nil, err
		}
		fc := gcfg
		fc.Addr, fc.Fill = srv.addr, spec.FillReqs*spec.Streams
		if _, err := runGen(fc, genTimeout, "", stderr); err != nil {
			return nil, err
		}
		for i := 0; i < durableSetupTrials; i++ {
			srv.kill()
			dir := filepath.Join(work, fmt.Sprintf("run%d", i))
			if err := copyDir(fill, dir); err != nil {
				return nil, err
			}
			t0 := time.Now()
			if srv, err = startServer(bin, append(spec.serverArgs(), "-data-dir", dir), stderr); err != nil {
				return nil, err
			}
			d, err := srv.waitReady(t0, listsAll(spec.Streams))
			if err != nil {
				return nil, err
			}
			trials = append(trials, d.Seconds())
		}
		gcfg.FirstReq = spec.FillReqs * spec.Streams
	}

	pid := srv.cmd.Process.Pid
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	gcfg.Addr = srv.addr
	rep, err := runGen(gcfg, genTimeout, filepath.Join(cfg.OutDir, fmt.Sprintf("%s-seed%d-gen.json", cfg.Workload, cfg.Seed)), stderr)
	if err != nil {
		return nil, err
	}
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	hwm, err := procStatus(pid, "VmHWM")
	if err != nil {
		return nil, err
	}
	rss, err := procStatus(pid, "VmRSS")
	if err != nil {
		return nil, err
	}
	srv.kill()
	srv = nil

	p, err := newPlan(spec, cfg.Seed)
	if err != nil {
		return nil, err
	}
	lags, err := checkIngest(p, gcfg.FirstReq, rep)
	if err != nil {
		return nil, fmt.Errorf("correctness: %w", err)
	}
	out, err := ingestMetrics(spec, rep, lags)
	if err != nil {
		if out != nil {
			for _, k := range sortedKeys(out.Detail) {
				fmt.Fprintf(stderr, "  %-34s %14.6g %s\n", k, out.Detail[k].Value, out.Detail[k].Unit)
			}
		}
		return nil, err
	}
	e, d := out.EndToEnd, out.Detail
	e.set("setup_s", median(trials), "s", len(trials))
	e.set("rss_peak_mb", hwm/1024, "MB", 1)
	acked := 0
	for _, r := range rep.Ingests {
		acked += r.Accepted
	}
	e.set("cpu_us_per_pt", float64(cpu1-cpu0)/float64(time.Microsecond)/float64(acked), "us", acked)
	d.set("egiserve.accounted_frac", rep.MemoryBytes/(rss*1024), "ratio", 1)

	if cfg.Trace {
		plan, err := ingestLedgerPlan(spec, cfg.Seed)
		if err != nil {
			return nil, err
		}
		if out.PerLayer, err = runLedger(cfg, plan, stderr); err != nil {
			return nil, err
		}
		// On ingest-many, NDJSON parse and manager push are the serial
		// in-process steps of a typical ack; what they do not account for
		// is the server's HTTP self time. (On ingest-durable nearly every
		// ack runs the engine, whose duration varies by more than HTTP
		// costs.)
		if spec.NDJSON {
			p := out.PerLayer
			d.set("egiserve.http_self_us_per_req",
				1000*d["ack_closed_p50_ms"].Value-p["manager.push_us_p50"].Value-p["ndjson.parse_us_p50"].Value,
				"us", d["ack_closed_p50_ms"].Samples)
		}
	}
	return out, nil
}

// refEvent is an anomaly the reference detector confirmed, tagged with
// the plan index of the request that carried the confirming point.
type refEvent struct {
	K       int
	Pos     int
	Length  int
	Density float64
}

// reference replays one stream's acked batches through an in-process
// egi.Stream configured like the server's streams. Events confirmed while
// pushing batches with index below firstReq (the untimed fill) are
// dropped; the server announced those before its restart.
func reference(p *plan, stream int, batches []opRec, firstReq int) ([]refEvent, error) {
	var (
		out []refEvent
		cur int
	)
	s, err := egi.Stream(egi.StreamOptions{
		Window: serverWindow, Hop: p.spec.Hop, EnsembleSize: ensembleSize,
		OnAnomaly: func(a egi.Anomaly) {
			if cur >= firstReq {
				out = append(out, refEvent{K: cur, Pos: a.Pos, Length: a.Length, Density: a.Density})
			}
		},
	})
	if err != nil {
		return nil, err
	}
	var buf []float64
	for _, b := range batches {
		cur = b.K
		_, pts := p.request(b.K, buf[:0])
		buf = pts
		if _, err := s.PushBatchN(pts[:b.Accepted]); err != nil {
			return nil, fmt.Errorf("reference stream %d request %d: %w", stream, b.K, err)
		}
	}
	return out, nil
}

// checkIngest is the ingest oracle. Every SSE anomaly must equal, in
// order per stream, what an in-process egi.Stream fed the same acked
// batches confirms, and the server's ingest counter must equal the acked
// points. It returns each event's lag: receipt minus the intended send
// time of the request that confirmed it.
func checkIngest(p *plan, firstReq int, rep *genReport) ([]eventLag, error) {
	spec := p.spec
	if rep.HealthFrames > 0 {
		return nil, fmt.Errorf("%d stream health transitions during the run", rep.HealthFrames)
	}
	acked := 0
	perStream := make([][]opRec, spec.Streams)
	for k := 0; k < firstReq; k++ {
		s, _ := p.locate(k)
		perStream[s] = append(perStream[s], opRec{K: k, Accepted: spec.BodyPts})
	}
	byK := make(map[int]opRec, len(rep.Ingests))
	for _, r := range rep.Ingests {
		acked += r.Accepted
		byK[r.K] = r
		if r.Accepted > 0 {
			s, _ := p.locate(r.K)
			perStream[s] = append(perStream[s], r)
		}
	}
	if float64(acked) != rep.IngestedTotal {
		return nil, fmt.Errorf("egi_ingest_points_total is %v, acked points %d", rep.IngestedTotal, acked)
	}

	refs := make([][]refEvent, spec.Streams)
	errs := make([]error, spec.Streams)
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for i := range refs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			refs[i], errs[i] = reference(p, i, perStream[i], firstReq)
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return matchEvents(refs, rep.Events, byK)
}

// eventLag is one matched event's timing.
type eventLag struct {
	K     int   // request that confirmed it
	Phase int   // phase of that request
	Lag   int64 // receipt minus the request's intended send time, ns
	Ack   int64 // that request's own latency, ns
}

// matchEvents pairs the received events with the reference events of
// their stream, in order, and maps each to the request that confirmed it.
func matchEvents(refs [][]refEvent, got []evRec, byK map[int]opRec) ([]eventLag, error) {
	next := make([]int, len(refs))
	lags := make([]eventLag, 0, len(got))
	for _, ev := range got {
		var s int
		if _, err := fmt.Sscanf(ev.Stream, "s%d", &s); err != nil || s < 0 || s >= len(refs) || streamID(s) != ev.Stream {
			return nil, fmt.Errorf("event for unknown stream %q", ev.Stream)
		}
		if next[s] >= len(refs[s]) {
			return nil, fmt.Errorf("stream %s: unexpected event %+v beyond the %d the reference confirmed", ev.Stream, ev, len(refs[s]))
		}
		want := refs[s][next[s]]
		next[s]++
		if want.Pos != ev.Pos || want.Length != ev.Length || math.Float64bits(want.Density) != math.Float64bits(ev.Density) {
			return nil, fmt.Errorf("stream %s event %d: got %+v, reference %+v", ev.Stream, next[s]-1, ev, want)
		}
		req, ok := byK[want.K]
		if !ok {
			return nil, fmt.Errorf("stream %s: confirming request %d was never sent", ev.Stream, want.K)
		}
		lags = append(lags, eventLag{K: want.K, Phase: req.Phase, Lag: ev.Recv - req.Intended, Ack: req.Done - req.Intended})
	}
	for s, n := range next {
		if n != len(refs[s]) {
			return nil, fmt.Errorf("stream %s: received %d events, reference confirmed %d", streamID(s), n, len(refs[s]))
		}
	}
	return lags, nil
}

// lateBound is the generator-health limit: a run whose open-loop sends
// left later than this at the workload's tail percentile did not keep
// its schedule, and is invalid.
const lateBound = time.Second

// ingestMetrics derives the ingest metrics from the generator's report.
func ingestMetrics(spec ingestSpec, rep *genReport, lags []eventLag) (*outcome, error) {
	out := &outcome{EndToEnd: metrics{}, Detail: metrics{}}
	var (
		closedPts                []sample
		closedAck, openAck, late []float64
		reads                    []float64
	)
	count := func(r opRec) {
		if r.Phase != phaseWarm {
			out.Attempted++
			if !r.OK {
				out.Failed++
			}
		}
	}
	// latency is an operation's time from its intended send; a failed or
	// refused one misses any latency limit.
	latency := func(r opRec) float64 {
		if !r.OK {
			return math.Inf(1)
		}
		return float64(r.Done-r.Intended) / 1e6
	}
	for _, r := range rep.Ingests {
		count(r)
		switch r.Phase {
		case phaseClosed:
			closedPts = append(closedPts, sample{at: r.Done, v: float64(r.Accepted), busy: float64(r.Done-r.Sent) / 1e9})
			closedAck = append(closedAck, latency(r))
		case phaseOpen:
			openAck = append(openAck, latency(r))
			late = append(late, float64(r.Sent-r.Intended)/1e6)
		}
	}
	for _, r := range rep.Reads {
		count(r)
		if r.Phase != phaseWarm {
			reads = append(reads, latency(r))
		}
	}
	for _, r := range rep.Scrapes {
		count(r)
	}

	// Closed-loop throughput counts the time spent in ingest requests:
	// reads and scrapes are timed on their own, and a replay's cost (tens
	// to hundreds of milliseconds, by the length of the log tail it
	// re-runs) would otherwise decide which windows read fast.
	throughput, windows, err := windowed(closedPts, rep.ClosedStart, rep.ClosedEnd, int64(time.Second), rate)
	if err != nil {
		return nil, fmt.Errorf("closed-loop throughput: %w", err)
	}
	// In a closed loop a request's latency is timed from its send; in the
	// open loop, from its intended send. Closed latency is the server's
	// own service time; open latency adds the queue behind slow requests.
	phase, acks := "open-loop", openAck
	if spec.ClosedLatency {
		phase, acks = "closed-loop", closedAck
	}
	ackTail, err := tail(phase+" ack latency", acks, spec.Tail)
	if err != nil {
		return nil, err
	}
	latePct, err := tail("generator lateness", late, spec.Tail)
	if err != nil {
		return nil, err
	}
	var lag, sseSelf []float64
	for _, l := range lags {
		if l.Phase != phaseWarm {
			lag = append(lag, float64(l.Lag)/1e6)
			sseSelf = append(sseSelf, float64(l.Lag-l.Ack)/1e6)
		}
	}

	e, d := out.EndToEnd, out.Detail
	e.set("throughput_pts_per_s", throughput, "pts/s", windows)
	e.set("latency_p50_ms", median(acks), "ms", len(acks))
	e.set("latency_tail_ms", ackTail, "ms", len(acks))
	d.setTimings("ack_open", openAck)
	d.setTimings("ack_closed", closedAck)
	d.set("gen.late_tail_ms", latePct, "ms", len(late))
	d.set("gen.max_outstanding", float64(rep.MaxOutstanding), "count", len(late))
	d.setTimings("read", reads)
	d.setTimings("event_lag", lag)
	d.setTimings("egiserve.sse_self", sseSelf)
	d.set("events", float64(len(lags)), "count", len(lags))
	d.set("failed_frac", float64(out.Failed)/float64(out.Attempted), "ratio", out.Attempted)
	if latePct > ms(lateBound) {
		return out, fmt.Errorf("invalid run: open-loop sends left %.1f ms late at p%g, over the %v bound", latePct, 100*spec.Tail, lateBound)
	}
	return out, nil
}

// copyDir copies a data directory tree.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if de.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}
