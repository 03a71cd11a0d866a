package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// A server that stalls one request must show in the latency of every
// request that fell due during the stall, not only in the stalled one: a
// generator timing from the actual send would omit that wait
// (coordinated omission).
func TestOpenLoopTimesFromIntendedSend(t *testing.T) {
	const (
		stallAt = 40
		stall   = 200 * time.Millisecond
	)
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if n.Add(1) == stallAt {
			time.Sleep(stall)
		}
		fmt.Fprintf(w, `{"pushed":%d}`, bytes.Count(body, []byte("\n")))
	}))
	defer srv.Close()

	spec := ingestSpec{Name: "stall", Streams: 2, BodyPts: 4, NDJSON: true, ReadEvery: 1 << 30, OpenRate: 500, Periods: 20}
	p, err := newPlan(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := &generator{
		cfg: genConfig{Open: 600 * time.Millisecond}, spec: spec, plan: p, start: time.Now(),
		base: srv.URL, client: srv.Client(), dead: make([]bool, spec.Streams), nextScrape: 1 << 62,
	}
	if err := g.openLoop(); err != nil {
		t.Fatal(err)
	}
	var fromIntended, fromSent int
	for _, r := range g.rep.Ingests {
		if !r.OK {
			t.Fatalf("request %d failed", r.K)
		}
		if r.Done-r.Intended >= int64(stall/2) {
			fromIntended++
		}
		if r.Done-r.Sent >= int64(stall/2) {
			fromSent++
		}
	}
	// At 500 requests/s, about 50 requests fall due in the first half of
	// the stall and each waits at least half of it.
	if fromSent > 3 {
		t.Errorf("%d requests took over %v from their actual send; only the stalled one should", fromSent, stall/2)
	}
	if fromIntended < 30 {
		t.Errorf("only %d requests took over %v from their intended send; the stall was omitted", fromIntended, stall/2)
	}
	if g.rep.MaxOutstanding < 30 {
		t.Errorf("max outstanding %d; the stall should have left ~100 requests due", g.rep.MaxOutstanding)
	}
}

func TestParseSSE(t *testing.T) {
	in := ": ping\n\nevent: anomaly\ndata: {\"stream\":\"s1\",\"pos\":5}\n\nevent: health\ndata: {}\n\n"
	var got []string
	err := parseSSE(strings.NewReader(in), func(kind string, data []byte) error {
		got = append(got, kind+" "+string(data))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{`anomaly {"stream":"s1","pos":5}`, "health {}"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("frames %q, want %q", got, want)
	}
}

func TestPlanStaggersThenRoundRobins(t *testing.T) {
	spec := ingestSpec{Streams: 4, BodyPts: 100, Stagger: defaultHop, Periods: 20}
	p, err := newPlan(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A stagger of 901 points over 4 streams gives stream i a head
	// start of i*901/4/100 requests: 0, 2, 4, 6.
	next := make([]int, spec.Streams)
	for k := 0; k < 12+4*5; k++ {
		s, b := p.locate(k)
		if b != next[s] {
			t.Fatalf("request %d: stream %d batch %d, want batch %d", k, s, b, next[s])
		}
		next[s]++
	}
	for i, n := range next {
		if want := spec.headStart(i) + 5; n != want {
			t.Errorf("stream %d received %d requests, want %d", i, n, want)
		}
	}
}
