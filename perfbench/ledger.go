package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"egi/internal/core"
	"egi/internal/manager"
	"egi/internal/ndjson"
	"egi/internal/router"
	"egi/internal/stream"
	"egi/internal/timeseries"
	"egi/internal/vfs"
)

// The traced pass pushes a workload's generated inputs through each
// layer's public constructors and methods in-process, one pass per layer
// cut, and records a span around every call. A layer with no seam to the
// one below it gets its self time as the difference of two passes over
// identical input.

// ledgerReq is one ingest request of the traced pass.
type ledgerReq struct {
	stream int
	pts    []float64
	body   []byte // the points as an NDJSON body
}

// ledgerPlan is the input of the traced pass.
type ledgerPlan struct {
	series    []batchItem // batch detection inputs for the timeseries and core passes
	streams   int
	reqs      []ledgerReq
	cfg       stream.Config // every stream's detector configuration
	readEvery int
}

func (p *ledgerPlan) points() int {
	n := 0
	for _, r := range p.reqs {
		n += len(r.pts)
	}
	return n
}

// ingestLedgerPlan takes the first LedgerReqs requests per stream of the
// workload's plan over its first LedgerStreams streams.
func ingestLedgerPlan(spec ingestSpec, seed int64) (*ledgerPlan, error) {
	sub := spec
	sub.Streams = spec.LedgerStreams
	src, err := newPlan(sub, seed)
	if err != nil {
		return nil, err
	}
	p := &ledgerPlan{
		streams:   sub.Streams,
		cfg:       stream.Config{Window: serverWindow, Hop: spec.Hop, EnsembleSize: ensembleSize},
		readEvery: spec.ReadEvery,
	}
	perStream := make([][]float64, sub.Streams)
	for k := 0; k < sub.Streams*spec.LedgerReqs; k++ {
		s, pts := src.request(k, nil)
		perStream[s] = append(perStream[s], pts...)
		p.reqs = append(p.reqs, ledgerReq{stream: s, pts: pts, body: encodeBody(nil, pts, true)})
	}
	// The core pass detects over each stream's first two buffers.
	for _, pts := range perStream[:min(6, len(perStream))] {
		p.series = append(p.series, batchItem{series: pts[:min(len(pts), 2000)], window: serverWindow})
	}
	return p, nil
}

// batchLedgerPlan detects over one cycle of the pool and streams three
// cycles, each series one stream, in 256-point requests round-robin.
func batchLedgerPlan(pool []batchItem) (*ledgerPlan, error) {
	const cycles, body = 3, 256
	n := 6 * cycles
	if len(pool) < n {
		return nil, fmt.Errorf("batch pool holds %d series, traced pass needs %d", len(pool), n)
	}
	p := &ledgerPlan{
		series:    pool[:6],
		streams:   n,
		cfg:       stream.Config{Window: serverWindow, EnsembleSize: ensembleSize},
		readEvery: 10,
	}
	for off := 0; ; off += body {
		sent := false
		for s, it := range pool[:n] {
			if off >= len(it.series) {
				continue
			}
			pts := it.series[off:min(off+body, len(it.series))]
			p.reqs = append(p.reqs, ledgerReq{stream: s, pts: pts, body: encodeBody(nil, pts, true)})
			sent = true
		}
		if !sent {
			return p, nil
		}
	}
}

// runLedger runs every pass over the plan and returns the per-layer
// metrics; it writes the spans under cfg.OutDir.
func runLedger(cfg runConfig, plan *ledgerPlan, stderr io.Writer) (metrics, error) {
	work, err := os.MkdirTemp(filepath.Dir(cfg.OutDir), "ledger-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	rec := newRecorder()
	m := metrics{}
	nreq, npts := len(plan.reqs), plan.points()
	var ran map[int]bool // requests whose push ran the engine
	steps := []struct {
		name string
		fn   func() error
	}{
		{"core", func() error { return corePass(plan, rec, m) }},
		{"ndjson", func() error { return ndjsonPass(plan, rec, m) }},
		{"stream", func() (err error) { ran, err = streamPasses(plan, rec, m); return err }},
		{"manager", func() error { return managerPasses(plan, rec, m, ran) }},
		{"wal", func() error { return walPass(plan, rec, m, work) }},
		{"router", func() error { return routerPasses(plan, rec, m) }},
	}
	for _, st := range steps {
		t0 := time.Now()
		if err := st.fn(); err != nil {
			return nil, fmt.Errorf("traced %s pass: %w", st.name, err)
		}
		runtime.GC()
		fmt.Fprintf(stderr, "perfbench: traced %s pass %.2fs (%d requests, %d points)\n", st.name, time.Since(t0).Seconds(), nreq, npts)
	}
	name := filepath.Join(cfg.OutDir, fmt.Sprintf("%s-seed%d-spans.jsonl", cfg.Workload, cfg.Seed))
	if err := rec.write(name); err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "perfbench: spans written to %s\n", name)
	return m, nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

// corePass times the batch path: features, members (at the default
// GOMAXPROCS and at 1), combine, and the allocation of one detection.
func corePass(plan *ledgerPlan, rec *recorder, m metrics) error {
	ccfg := func(it batchItem) core.Config { return core.Config{Window: it.window, Size: ensembleSize, Seed: 1} }
	var allocMB []float64
	for i, it := range plan.series {
		sp := rec.begin("timeseries.features", -1, i)
		f, err := timeseries.NewFeatures(it.series)
		rec.end(sp)
		if err != nil {
			return err
		}
		sp = rec.begin("core.members", -1, i)
		mc, err := core.ComputeMembers(f, ccfg(it))
		rec.end(sp)
		if err != nil {
			return err
		}
		sp = rec.begin("core.combine", -1, i)
		_, err = core.CombineMembers(mc, ccfg(it))
		rec.end(sp)
		if err != nil {
			return err
		}

		prev := runtime.GOMAXPROCS(1)
		sp = rec.begin("core.members_procs1", -1, i)
		_, err = core.ComputeMembers(f, ccfg(it))
		rec.end(sp)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			return err
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := core.Detect(it.series, ccfg(it)); err != nil {
			return err
		}
		runtime.ReadMemStats(&after)
		allocMB = append(allocMB, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	}
	n := len(plan.series)
	m.set("timeseries.features_ms", median(rec.durations("timeseries.features", time.Millisecond)), "ms", n)
	m.set("core.members_ms", median(rec.durations("core.members", time.Millisecond)), "ms", n)
	m.set("core.combine_ms", median(rec.durations("core.combine", time.Millisecond)), "ms", n)
	m.set("core.members_procs1_ms", median(rec.durations("core.members_procs1", time.Millisecond)), "ms", n)
	m.set("core.alloc_mb_per_series", mean(allocMB), "MB", n)
	return nil
}

func ndjsonPass(plan *ledgerPlan, rec *recorder, m metrics) error {
	buf := make([]float64, 0, 1024)
	for k, r := range plan.reqs {
		buf = buf[:0]
		sp := rec.begin("ndjson.parse", -1, k)
		err := ndjson.ForEach(bytes.NewReader(r.body), "value", func(_ int, v float64) error {
			buf = append(buf, v)
			return nil
		})
		rec.end(sp)
		if err != nil {
			return err
		}
		if len(buf) != len(r.pts) {
			return fmt.Errorf("request %d parsed to %d points, want %d", k, len(buf), len(r.pts))
		}
	}
	us := rec.durations("ndjson.parse", time.Microsecond)
	m.set("ndjson.parse_us_per_req", mean(us), "us", len(us))
	m.set("ndjson.parse_us_p50", median(us), "us", len(us))
	return nil
}

// streamPasses pushes every request into one stream.Detector per stream:
// traced at the default GOMAXPROCS, then untraced at GOMAXPROCS=1. It
// returns the requests whose push ran the engine.
func streamPasses(plan *ledgerPlan, rec *recorder, m metrics) (map[int]bool, error) {
	var runMs, norunUs []float64
	ran := make(map[int]bool)
	runs, bytesPer := 0, 0.0
	pass := func(rec *recorder, name string) (time.Duration, error) {
		dets := make([]*stream.Detector, plan.streams)
		for i := range dets {
			var err error
			if dets[i], err = stream.New(plan.cfg); err != nil {
				return 0, err
			}
		}
		var total time.Duration
		for k, r := range plan.reqs {
			d := dets[r.stream]
			before := d.Runs()
			sp := rec.begin(name, -1, k)
			t0 := time.Now()
			_, err := d.PushBatchN(r.pts)
			el := time.Since(t0)
			rec.end(sp)
			if err != nil {
				return 0, err
			}
			total += el
			if rec != nil {
				if d.Runs() > before {
					runMs = append(runMs, ms(el))
					ran[k] = true
				} else {
					norunUs = append(norunUs, float64(el)/float64(time.Microsecond))
				}
			}
		}
		if rec != nil {
			var b int64
			for _, d := range dets {
				runs += d.Runs()
				b += d.MemoryFootprint()
			}
			bytesPer = float64(b) / float64(len(dets))
		}
		return total, nil
	}
	npts := float64(plan.points())
	traced, err := pass(rec, "stream.push")
	if err != nil {
		return nil, err
	}
	prev := runtime.GOMAXPROCS(1)
	procs1, err := pass(nil, "")
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return nil, err
	}
	m.set("stream.push_us_per_pt", float64(traced)/float64(time.Microsecond)/npts, "us", len(plan.reqs))
	m.set("stream.push_procs1_us_per_pt", float64(procs1)/float64(time.Microsecond)/npts, "us", len(plan.reqs))
	m.set("stream.run_call_ms_p90", percentile(runMs, 0.90), "ms", len(runMs))
	m.set("stream.norun_call_us_p50", median(norunUs), "us", len(norunUs))
	m.set("stream.runs_per_kpt", 1000*float64(runs)/npts, "runs", runs)
	m.set("stream.bytes_per_stream", bytesPer, "B", plan.streams)
	return ran, nil
}

// pushAll pushes every request through push, with a read (stats plus
// top-K) after every readEvery requests.
func pushAll(plan *ledgerPlan, rec *recorder, pushName string, h interface {
	PushBatchN(string, []float64) (int, error)
	StreamStats(string) (manager.StreamStats, error)
	Anomalies(string) ([]stream.Event, error)
}, before func(sp int)) error {
	for k, r := range plan.reqs {
		id := streamID(r.stream)
		sp := rec.begin(pushName, -1, k)
		if before != nil {
			before(sp)
		}
		_, err := h.PushBatchN(id, r.pts)
		rec.end(sp)
		if err != nil {
			return fmt.Errorf("request %d: %w", k, err)
		}
		if (k+1)%plan.readEvery == 0 {
			sp := rec.begin(pushName+"_read", -1, k)
			_, err := h.StreamStats(id)
			if err == nil {
				// Like egiserve's stats handler, which omits the ranking
				// until the stream has covered a window, ignore its error.
				_, _ = h.Anomalies(id)
			}
			rec.end(sp)
			if err != nil {
				return fmt.Errorf("read after request %d: %w", k, err)
			}
		}
	}
	return nil
}

// managerPasses pushes through a memory-only manager.Manager, untraced
// and then traced.
func managerPasses(plan *ledgerPlan, rec *recorder, m metrics, ran map[int]bool) error {
	pass := func(rec *recorder) (time.Duration, int64, error) {
		mgr, err := manager.New(manager.Config{Stream: plan.cfg})
		if err != nil {
			return 0, 0, err
		}
		defer mgr.Close()
		t0 := time.Now()
		err = pushAll(plan, rec, "manager.push", mgr, nil)
		return time.Since(t0), mgr.TotalBytes(), err
	}
	untraced, _, err := pass(nil)
	if err != nil {
		return err
	}
	runtime.GC()
	before := rec.len()
	_, accounted, err := pass(rec)
	if err != nil {
		return err
	}
	m.set("manager.accounted_mb", float64(accounted)/(1<<20), "MB", plan.streams)
	// Tracing overhead: what the spans the traced pass recorded cost,
	// over the untraced pass. Comparing the two passes' wall times instead
	// measures mostly pass-to-pass noise, ±10% on engine-heavy inputs.
	m.set("trace.overhead_frac", float64(rec.len()-before)*spanCost().Seconds()/untraced.Seconds(), "ratio", rec.len()-before)

	// The manager has no seam above the detector: its self time is the
	// median over requests of this pass's push minus the stream pass's
	// push of the same request, which did the same detector work. Only
	// requests that ran no engine are paired: a run's own duration varies
	// between passes by more than the manager costs.
	streamPush := make(map[int]int64)
	for _, sp := range rec.named("stream.push") {
		streamPush[sp.Req] = sp.dur()
	}
	var self []float64
	for _, sp := range rec.named("manager.push") {
		if !ran[sp.Req] {
			self = append(self, float64(sp.dur()-streamPush[sp.Req])/float64(time.Microsecond))
		}
	}
	push := rec.durations("manager.push", time.Microsecond)
	reads := rec.durations("manager.push_read", time.Microsecond)
	m.set("manager.self_us_per_req", median(self), "us", len(self))
	m.set("manager.push_us_p50", median(push), "us", len(push))
	m.set("manager.read_us_p90", percentile(reads, 0.90), "us", len(reads))
	return nil
}

// spanCost measures what recording one span costs.
func spanCost() time.Duration {
	const n = 100000
	r := newRecorder()
	r.spans = make([]span, 0, n)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		r.end(r.begin("x", -1, i))
	}
	return time.Since(t0) / n
}

// timedFS is a vfs.FS that records the durability layer's file
// operations as spans under the push that caused them.
type timedFS struct {
	vfs.FS
	rec    *recorder
	mu     sync.Mutex
	parent int
	ckpt   map[string]int // snapshot temp file -> open checkpoint span
	// Bytes written to log segments and to snapshot files, and snapshot
	// count.
	logBytes, snapBytes, snaps int64
	syncs                      int
}

func (t *timedFS) setParent(sp int) {
	t.mu.Lock()
	t.parent = sp
	t.mu.Unlock()
}

func (t *timedFS) begin(name string) int {
	t.mu.Lock()
	parent := t.parent
	t.mu.Unlock()
	return t.rec.begin(name, parent, -1)
}

func (t *timedFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	snap := strings.HasSuffix(name, ".snap.tmp")
	if snap {
		sp := t.begin("wal.checkpoint")
		t.mu.Lock()
		t.ckpt[name] = sp
		t.snaps++
		t.mu.Unlock()
	}
	f, err := t.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, fs: t, log: strings.HasSuffix(name, ".log"), snap: snap}, nil
}

func (t *timedFS) Open(name string) (vfs.File, error) {
	f, err := t.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, fs: t}, nil
}

func (t *timedFS) Rename(oldpath, newpath string) error {
	err := t.FS.Rename(oldpath, newpath)
	t.mu.Lock()
	sp, ok := t.ckpt[oldpath]
	delete(t.ckpt, oldpath)
	t.mu.Unlock()
	if ok {
		t.rec.end(sp)
	}
	return err
}

type timedFile struct {
	vfs.File
	fs        *timedFS
	log, snap bool
}

func (f *timedFile) Write(p []byte) (int, error) {
	if !f.log {
		n, err := f.File.Write(p)
		if f.snap {
			f.fs.mu.Lock()
			f.fs.snapBytes += int64(n)
			f.fs.mu.Unlock()
		}
		return n, err
	}
	sp := f.fs.begin("wal.append")
	n, err := f.File.Write(p)
	f.fs.rec.end(sp)
	f.fs.mu.Lock()
	f.fs.logBytes += int64(n)
	f.fs.mu.Unlock()
	return n, err
}

func (f *timedFile) Sync() error {
	name := "wal.sync_other"
	if f.log {
		name = "wal.fsync"
	}
	sp := f.fs.begin(name)
	err := f.File.Sync()
	f.fs.rec.end(sp)
	f.fs.mu.Lock()
	f.fs.syncs++
	f.fs.mu.Unlock()
	return err
}

// walPass pushes through a durable manager (fsync on) over the timing
// filesystem, then times recovery over a copy of its directory and a
// replay of every stream.
func walPass(plan *ledgerPlan, rec *recorder, m metrics, work string) error {
	dir := filepath.Join(work, "wal")
	tfs := &timedFS{FS: vfs.OS{}, rec: rec, parent: -1, ckpt: map[string]int{}}
	mgr, err := manager.New(manager.Config{Stream: plan.cfg, DataDir: dir, Fsync: true, FS: tfs, SnapshotEvery: snapshotEvery})
	if err != nil {
		return err
	}
	defer mgr.Close()
	if err := pushAll(plan, rec, "manager.push_wal", mgr, tfs.setParent); err != nil {
		return err
	}
	tfs.setParent(-1)
	nreq, npts := float64(len(plan.reqs)), float64(plan.points())
	appendUs := rec.durations("wal.append", time.Microsecond)
	fsyncUs := rec.durations("wal.fsync", time.Microsecond)
	ckptMs := rec.durations("wal.checkpoint", time.Millisecond)
	tfs.mu.Lock()
	logBytes, snapBytes, snaps, syncs := tfs.logBytes, tfs.snapBytes, tfs.snaps, tfs.syncs
	tfs.mu.Unlock()
	m.set("wal.append_us_per_req", sum(appendUs)/nreq, "us", len(appendUs))
	m.set("wal.bytes_per_pt", float64(logBytes)/npts, "B", int(npts))
	m.set("wal.fsync_us_p50", median(fsyncUs), "us", len(fsyncUs))
	m.set("wal.fsync_us_p90", percentile(fsyncUs, 0.90), "us", len(fsyncUs))
	m.set("wal.fsyncs_per_req", float64(syncs)/nreq, "count", syncs)
	m.set("wal.checkpoint_ms_p50", median(ckptMs), "ms", len(ckptMs))
	if snaps > 0 {
		m.set("wal.checkpoint_bytes", float64(snapBytes)/float64(snaps), "B", int(snaps))
	}

	// Every push was fsynced, so the directory as it stands is what a
	// crash would leave behind.
	crashed := filepath.Join(work, "crashed")
	if err := copyDir(dir, crashed); err != nil {
		return err
	}
	sp := rec.begin("wal.recover", -1, -1)
	rmgr, err := manager.New(manager.Config{Stream: plan.cfg, DataDir: crashed, Fsync: true, SnapshotEvery: snapshotEvery})
	rec.end(sp)
	if err != nil {
		return err
	}
	if n := rmgr.Len(); n != plan.streams {
		rmgr.Close()
		return fmt.Errorf("recovered %d streams, want %d", n, plan.streams)
	}
	if err := rmgr.Close(); err != nil {
		return err
	}
	m.set("wal.recover_s", rec.durations("wal.recover", time.Second)[0], "s", 1)

	for s := 0; s < plan.streams; s++ {
		sp := rec.begin("wal.replay", -1, -1)
		_, err := mgr.ReplayStream(streamID(s), func(int, stream.Event) error { return nil })
		rec.end(sp)
		if err != nil {
			return err
		}
	}
	m.set("wal.replay_ms_p50", median(rec.durations("wal.replay", time.Millisecond)), "ms", plan.streams)
	return nil
}

// spanHost is a router member that records a span around each push, as
// the child of the router span that routed it.
type spanHost struct {
	*manager.Manager
	rec    *recorder
	name   string
	parent *int
}

func (h spanHost) PushBatchN(id string, xs []float64) (int, error) {
	sp := h.rec.begin(h.name, *h.parent, -1)
	defer h.rec.end(sp)
	return h.Manager.PushBatchN(id, xs)
}

// routerPasses pushes through a router over 1 and then 4 memory-only
// members; the router's self time is its span minus the member span.
func routerPasses(plan *ledgerPlan, rec *recorder, m metrics) error {
	for _, members := range []int{1, 4} {
		name := fmt.Sprintf("router.push_m%d", members)
		parent := -1
		var ms []router.Member
		for i := 0; i < members; i++ {
			mgr, err := manager.New(manager.Config{Stream: plan.cfg})
			if err != nil {
				return err
			}
			ms = append(ms, router.Member{Name: fmt.Sprintf("m%d", i), Host: spanHost{Manager: mgr, rec: rec, name: name + "_member", parent: &parent}})
		}
		r, err := router.New(router.Config{Members: ms})
		if err != nil {
			return err
		}
		err = pushAll(plan, rec, name, r, func(sp int) { parent = sp })
		if cerr := r.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		rec.mu.Lock()
		self := selfTimes(rec.spans)
		var us []float64
		for i, s := range rec.spans {
			if s.Name == name {
				us = append(us, float64(self[i])/float64(time.Microsecond))
			}
		}
		rec.mu.Unlock()
		m.set(fmt.Sprintf("router.self_us_per_req_m%d", members), mean(us), "us", len(us))
	}
	return nil
}
