package main

import (
	"fmt"
	"strconv"

	"egi/internal/quality"
	"egi/internal/stream"
)

// defaultSeed is the recorded default seed (README.md also names the
// held-out seed, kept for confirming a claim).
const defaultSeed = 1

// endToEndNames are the metrics a --trace 0 run prints. Every workload
// measures every one of them (README.md gives each workload's
// definition).
var endToEndNames = []string{
	"setup_s", "throughput_pts_per_s", "latency_p50_ms", "latency_tail_ms", "cpu_us_per_pt", "rss_peak_mb",
}

// perLayerNames are the metrics a --trace 1 run prints, from the
// in-process pass over the workload's inputs.
var perLayerNames = []string{
	"timeseries.features_ms",
	"core.members_ms", "core.combine_ms", "core.members_procs1_ms", "core.alloc_mb_per_series",
	"stream.push_us_per_pt", "stream.push_procs1_us_per_pt", "stream.run_call_ms_p90",
	"stream.norun_call_us_p50", "stream.runs_per_kpt", "stream.bytes_per_stream",
	"ndjson.parse_us_per_req",
	"manager.self_us_per_req", "manager.read_us_p90", "manager.accounted_mb",
	"wal.append_us_per_req", "wal.bytes_per_pt", "wal.fsync_us_p50", "wal.fsync_us_p90",
	"wal.fsyncs_per_req", "wal.checkpoint_ms_p50", "wal.checkpoint_bytes", "wal.recover_s",
	"wal.replay_ms_p50",
	"router.self_us_per_req_m1", "router.self_us_per_req_m4",
	"trace.overhead_frac",
}

// ingestSpec is one egiserve traffic mix.
type ingestSpec struct {
	Name    string
	Streams int
	// BodyPts points per ingest request; NDJSON bodies when NDJSON is
	// set, JSON arrays otherwise.
	BodyPts int
	NDJSON  bool
	// Hop is passed to egiserve -hop; 0 keeps the default.
	Hop int
	// Stagger is the period, in points, of the streams' periodic work
	// that their head starts spread out (see headStart).
	Stagger int
	// Durable runs egiserve with -data-dir and -fsync, fills FillReqs
	// requests per stream untimed, kills the server, and times the run
	// from a restart over that directory.
	Durable  bool
	FillReqs int
	// ReadEvery ingests of the warm-up and closed loop are followed by
	// one read: a stream's stats and top-K, or with Durable its replay
	// from disk. The open loop sends no reads: on the one connection a
	// read would hold up the ingests due behind it, so their latency
	// would measure the client's serialization rather than the server.
	ReadEvery int
	// OpenRate is the open-loop ingest request rate, frozen at about a
	// sixth of the closed-loop capacity measured on the reference machine
	// (README.md): low enough that the queue stays short when the shared
	// VM loses a quarter of its CPU to its neighbours.
	OpenRate float64
	// ClosedLatency reports the end-to-end ack latencies from the closed
	// loop, timed from each request's send, instead of from the open
	// loop, timed from its intended send (README.md gives the reason).
	ClosedLatency bool
	// Tail is the reported ack percentile, over the whole phase.
	Tail float64
	// Periods sizes each stream's signal (see signal).
	Periods int
	// The traced pass pushes LedgerReqs requests per stream over the
	// first LedgerStreams streams: fewer streams than the server run, so
	// each pass's detectors fit in memory and its time in the run, and
	// enough requests that some streams checkpoint.
	LedgerStreams, LedgerReqs int
}

var ingestSpecs = map[string]ingestSpec{
	"ingest-many": {
		Name: "ingest-many", Streams: 64, BodyPts: 16, NDJSON: true, Stagger: defaultHop,
		ReadEvery: 10, OpenRate: 300, ClosedLatency: true, Tail: 0.99,
		Periods: 200, LedgerStreams: 16, LedgerReqs: 520,
	},
	"ingest-durable": {
		Name: "ingest-durable", Streams: 16, BodyPts: 256, Hop: 100, Stagger: snapshotEvery,
		Durable: true, FillReqs: 33, ReadEvery: 40, OpenRate: 10, Tail: 0.90,
		Periods: 600, LedgerStreams: 8, LedgerReqs: 33,
	},
}

// serverWindow is every ingest stream's window, and the ensemble runs at
// the paper's N=50.
const (
	serverWindow = 100
	ensembleSize = 50
)

// serverArgs are the egiserve flags of the spec, minus -addr and -data-dir.
func (s ingestSpec) serverArgs() []string {
	args := []string{"-window", strconv.Itoa(serverWindow), "-size", strconv.Itoa(ensembleSize)}
	if s.Hop > 0 {
		args = append(args, "-hop", strconv.Itoa(s.Hop))
	}
	if s.Durable {
		args = append(args, "-fsync", "-snapshot-every", strconv.Itoa(snapshotEvery))
	}
	return args
}

// signal generates stream i's points: corpus family i mod 5 of the
// internal/quality set, seeded with seed+i, so no two streams share a
// grammar. A stream that outruns its signal wraps around to its start.
func signal(seed int64, i, periods int) ([]float64, error) {
	gens := []func(quality.CorpusSpec) (*quality.Corpus, error){
		quality.Drift, quality.Seasonality, quality.Burst, quality.LevelShift, quality.NoiseRegime,
	}
	c, err := gens[i%len(gens)](quality.CorpusSpec{Seed: seed + int64(i), Periods: periods, Anomalies: periods / 10})
	if err != nil {
		return nil, fmt.Errorf("stream %d signal: %w", i, err)
	}
	return c.Series, nil
}

// plan is an ingest workload's deterministic request sequence.
type plan struct {
	spec ingestSpec
	sigs [][]float64
	// prelude lists the (stream, batch) of each head-start request.
	prelude [][2]int
}

// newPlan generates every stream's signal and the head-start prelude.
func newPlan(spec ingestSpec, seed int64) (*plan, error) {
	p := &plan{spec: spec, sigs: make([][]float64, spec.Streams)}
	for i := range p.sigs {
		var err error
		if p.sigs[i], err = signal(seed, i, spec.Periods); err != nil {
			return nil, err
		}
	}
	for r := 0; ; r++ {
		owed := false
		for i := 0; i < spec.Streams; i++ {
			if spec.headStart(i) > r {
				p.prelude = append(p.prelude, [2]int{i, r})
				owed = true
			}
		}
		if !owed {
			return p, nil
		}
	}
}

// defaultHop is egiserve's hop when -hop and -buflen are unset:
// buflen-window+1 with the stream package's default buflen.
// snapshotEvery is the durable streams' checkpoint interval in points,
// passed to egiserve and to the traced managers.
const (
	defaultHop    = stream.DefaultBufFactor*serverWindow - serverWindow + 1
	snapshotEvery = 8192
)

// headStart is the number of requests stream i receives before the
// round-robin starts. Streams start staggered over the spec's Stagger
// points, so their periodic work (engine runs, checkpoints) spreads
// evenly, as independent sources' would; in lockstep every stream would
// do it in the same round, one after another.
func (s ingestSpec) headStart(i int) int {
	return i * s.Stagger / s.Streams / s.BodyPts
}

// locate returns the stream and the stream-local batch index of request k.
func (p *plan) locate(k int) (stream, batch int) {
	if k < len(p.prelude) {
		return p.prelude[k][0], p.prelude[k][1]
	}
	j := k - len(p.prelude)
	stream = j % p.spec.Streams
	return stream, p.spec.headStart(stream) + j/p.spec.Streams
}

// request returns the k-th ingest request: after the staggered head
// starts, requests go round-robin over the streams, each carrying the
// stream's next BodyPts points. It appends the points to buf.
func (p *plan) request(k int, buf []float64) (stream int, pts []float64) {
	stream, batch := p.locate(k)
	sig := p.sigs[stream]
	start := batch * p.spec.BodyPts
	for j := 0; j < p.spec.BodyPts; j++ {
		buf = append(buf, sig[(start+j)%len(sig)])
	}
	return stream, buf
}

// streamID names stream i on the wire.
func streamID(i int) string { return "s" + strconv.Itoa(i) }

// encodeBody renders points as an ingest body: NDJSON lines or a JSON
// array, each number in the shortest form that parses back to the same
// float64, so the server pushes exactly the points the oracle pushes.
func encodeBody(buf []byte, pts []float64, ndjson bool) []byte {
	buf = buf[:0]
	if ndjson {
		for _, v := range pts {
			buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
			buf = append(buf, '\n')
		}
		return buf
	}
	buf = append(buf, '[')
	for i, v := range pts {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
	}
	return append(buf, ']')
}
