// Command perfbench is the repository benchmark. One run executes one
// workload for a fixed time, checks the program's outputs against an
// oracle, and prints its metrics as one JSON object on the last line of
// standard output:
//
//	perfbench -bin DIR -out DIR --workload NAME --seed N --seconds S --trace 0|1
//
// run.sh builds egiserve and perfbench from the checkout and supplies -bin
// and -out. With --trace 0 the metrics are the end-to-end metrics of
// BENCHMARK.json; with --trace 1 the run also pushes the workload's inputs
// through each layer in-process and reports the per-layer metrics. Every
// run writes a record (machine descriptor, all metrics with sample
// counts) to -out, and a traced run also writes its span file there.
//
// Subcommands used by the benchmark itself:
//
//	perfbench gen                 load generator (config on stdin)
//	perfbench cold --seed N       time one cold egi.Detect call
//	perfbench compare A.json B.json
//	                              compare two run records; refuses when
//	                              their machine descriptors differ
//
// See README.md for the workloads, metrics and the layer map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "gen":
			return exitCode(genMain(os.Stdin, stdout), stderr)
		case "cold":
			return exitCode(coldMain(args[1:], stdout), stderr)
		case "compare":
			return exitCode(compareMain(args[1:], stdout), stderr)
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload name: batch-paper, ingest-many or ingest-durable")
		seed     = fs.Int64("seed", defaultSeed, "input seed; the same seed gives the same inputs")
		seconds  = fs.Int("seconds", 20, "measured seconds per run")
		trace    = fs.Int("trace", 0, "1 runs the traced per-layer pass and reports per-layer metrics")
		binDir   = fs.String("bin", "", "directory holding the egiserve and perfbench binaries")
		outDir   = fs.String("out", "", "directory for run records and span files")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *binDir == "" || *outDir == "" {
		fmt.Fprintln(stderr, "perfbench: need --seconds >= 1, --trace 0|1, -bin and -out")
		return 2
	}
	cfg := runConfig{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		BinDir: *binDir, OutDir: *outDir,
	}
	// Every workload writes its records, span files and scratch data
	// under -out or beside it.
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res, rec, err := runWorkload(cfg)
	if err == nil {
		err = writeRecord(cfg, rec, stderr)
	}
	var b []byte
	if err == nil {
		b, err = json.Marshal(res)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

func exitCode(err error, stderr io.Writer) int {
	if err == nil {
		return 0
	}
	fmt.Fprintln(stderr, "perfbench:", err)
	return 1
}

// runConfig is one benchmark invocation.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  int
	Trace    bool
	BinDir   string
	OutDir   string
}

func (c runConfig) duration() time.Duration { return time.Duration(c.Seconds) * time.Second }

// metric is one reported number with its unit and sample count.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"-"`
}

// result is the object printed on the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// sampled is a metric as stored in a run record, sample count included.
type sampled struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// record is everything one run measured, as written to -out.
type record struct {
	Machine   machine            `json:"machine"`
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Trace     bool               `json:"trace"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]sampled `json:"metrics"`
	// Detail holds the workload's own metrics that the result line omits
	// (event lag, read latency, the paper score, generator health, the
	// out-of-process egiserve layer numbers).
	Detail map[string]sampled `json:"detail"`
}

// metrics is a set of named measurements under construction.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string, n int) {
	m[name] = metric{Value: v, Unit: unit, Samples: n}
}

// tailLadder are the percentiles a timing's tail may be reported at.
var tailLadder = []float64{0.75, 0.9, 0.95, 0.99, 0.999}

// setTimings reports millisecond samples as name_p50_ms plus name_pNN_ms
// at the highest ladder percentile with minBeyond samples beyond it.
func (m metrics) setTimings(name string, xs []float64) {
	if len(xs) == 0 {
		return
	}
	m.set(name+"_p50_ms", median(xs), "ms", len(xs))
	if p, ok := highestPercentile(len(xs), tailLadder); ok {
		m.set(fmt.Sprintf("%s_p%g_ms", name, 100*p), percentile(xs, p), "ms", len(xs))
	}
}

func (m metrics) sampled() map[string]sampled {
	out := make(map[string]sampled, len(m))
	for k, v := range m {
		out[k] = sampled{Value: v.Value, Unit: v.Unit, Samples: v.Samples}
	}
	return out
}

// outcome is what a workload returns: its end-to-end metrics, the
// per-layer ones when traced, workload-specific detail, and counts.
type outcome struct {
	EndToEnd  metrics
	PerLayer  metrics
	Detail    metrics
	Attempted int
	Failed    int
}

// runWorkload runs the configured workload and returns the printed
// result and the full record. Any failed correctness check is an error:
// a run either passes its oracle or reports nothing.
func runWorkload(cfg runConfig) (*result, *record, error) {
	var (
		out *outcome
		err error
	)
	steal0, stealErr := stolen()
	start := time.Now()
	switch cfg.Workload {
	case "batch-paper":
		out, err = runBatch(cfg, os.Stderr)
	case "ingest-many", "ingest-durable":
		out, err = runIngest(cfg, ingestSpecs[cfg.Workload], os.Stderr)
	default:
		err = fmt.Errorf("unknown workload %q (want batch-paper, ingest-many or ingest-durable)", cfg.Workload)
	}
	if err != nil {
		return nil, nil, err
	}
	if out.Attempted < 1 {
		return nil, nil, errors.New("no operation was attempted")
	}
	// The share of the machine's CPU time the hypervisor took during the
	// run: a run on a shared VM that reads slow for this reason says so.
	if steal1, err := stolen(); err == nil && stealErr == nil {
		out.Detail.set("machine.steal_frac", (steal1-steal0).Seconds()/(time.Since(start).Seconds()*float64(runtime.NumCPU())), "ratio", 1)
	}
	want, reported := endToEndNames, out.EndToEnd
	if cfg.Trace {
		want, reported = perLayerNames, out.PerLayer
	}
	res := &result{Correct: true, Attempted: out.Attempted, Failed: out.Failed, Metrics: map[string]metric{}}
	for _, name := range want {
		v, ok := reported[name]
		if !ok {
			return nil, nil, fmt.Errorf("metric %s was not measured", name)
		}
		res.Metrics[name] = v
	}
	rec := &record{
		Machine: describeMachine(), Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace,
		Attempted: out.Attempted, Failed: out.Failed,
		Metrics: out.EndToEnd.sampled(), Detail: out.Detail.sampled(),
	}
	for k, v := range out.PerLayer.sampled() {
		rec.Metrics[k] = v
	}
	return res, rec, nil
}

// writeRecord stores the run record under cfg.OutDir and prints every
// metric with its unit and sample count to stderr.
func writeRecord(cfg runConfig, rec *record, stderr io.Writer) error {
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := filepath.Join(cfg.OutDir, fmt.Sprintf("%s-seed%d-trace%v.json", cfg.Workload, cfg.Seed, cfg.Trace))
	if err := os.WriteFile(name, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "perfbench: %s seed=%d attempted=%d failed=%d record=%s\n",
		rec.Workload, rec.Seed, rec.Attempted, rec.Failed, name)
	for _, group := range []map[string]sampled{rec.Metrics, rec.Detail} {
		for _, k := range sortedKeys(group) {
			v := group[k]
			fmt.Fprintf(stderr, "  %-34s %14.6g %-8s n=%d\n", k, v.Value, v.Unit, v.Samples)
		}
	}
	return nil
}

// compareMain prints the metric-by-metric difference of two run records.
// Records from different machines, workloads or modes are not comparable.
func compareMain(args []string, stdout io.Writer) error {
	if len(args) != 2 {
		return errors.New("usage: perfbench compare A.json B.json")
	}
	var recs [2]record
	for i, name := range args {
		b, err := os.ReadFile(name)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &recs[i]); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	a, b := recs[0], recs[1]
	if a.Machine != b.Machine {
		return fmt.Errorf("refusing to compare: machine descriptors differ:\n  %+v\n  %+v", a.Machine, b.Machine)
	}
	if a.Workload != b.Workload || a.Seconds != b.Seconds || a.Trace != b.Trace {
		return fmt.Errorf("refusing to compare: runs differ in workload, seconds or trace")
	}
	names := make([]string, 0, len(a.Metrics))
	for k := range a.Metrics {
		if _, ok := b.Metrics[k]; ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-34s %14s %14s %9s\n", "metric", filepath.Base(args[0]), filepath.Base(args[1]), "change")
	for _, k := range names {
		x, y := a.Metrics[k], b.Metrics[k]
		change := "n/a"
		if x.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(y.Value-x.Value)/x.Value)
		}
		fmt.Fprintf(stdout, "%-34s %14.6g %14.6g %9s %s\n", k, x.Value, y.Value, change, strings.TrimSpace(x.Unit))
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
