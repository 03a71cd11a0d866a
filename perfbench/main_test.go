package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTestRecord(t *testing.T, name string, r record) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareRefusesDifferentMachines(t *testing.T) {
	m := describeMachine()
	base := record{Machine: m, Workload: "ingest-many", Seconds: 10,
		Metrics: map[string]sampled{"latency_p50_ms": {Value: 2, Unit: "ms"}}}
	faster := base
	faster.Metrics = map[string]sampled{"latency_p50_ms": {Value: 1.5, Unit: "ms"}}
	a := writeTestRecord(t, "a.json", base)
	b := writeTestRecord(t, "b.json", faster)

	var out strings.Builder
	if err := compareMain([]string{a, b}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "-25.0%") {
		t.Errorf("comparison table lacks the change:\n%s", out.String())
	}

	other := faster
	other.Machine.NProc = m.NProc + 1
	c := writeTestRecord(t, "c.json", other)
	if err := compareMain([]string{a, c}, &out); err == nil || !strings.Contains(err.Error(), "machine descriptors differ") {
		t.Errorf("records from different machines compared: %v", err)
	}
	otherWorkload := faster
	otherWorkload.Workload = "batch-paper"
	d := writeTestRecord(t, "d.json", otherWorkload)
	if err := compareMain([]string{a, d}, &out); err == nil {
		t.Error("records of different workloads compared")
	}
}

func TestDescribeMachine(t *testing.T) {
	m := describeMachine()
	if m.NProc < 1 || m.GOMAXPROCS < 1 || m.GoVersion == "" {
		t.Errorf("incomplete descriptor %+v", m)
	}
}
