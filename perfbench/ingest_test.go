package main

import (
	"math"
	"strings"
	"testing"
)

func TestMatchEventsMapsToConfirmingRequest(t *testing.T) {
	refs := [][]refEvent{
		{{K: 4, Pos: 10, Length: 100, Density: 0.1}},
		{{K: 7, Pos: 20, Length: 100, Density: 0.05}, {K: 9, Pos: 900, Length: 100, Density: 0.15}},
	}
	byK := map[int]opRec{
		4: {K: 4, Phase: phaseClosed, Intended: 1000, Done: 1500},
		7: {K: 7, Phase: phaseOpen, Intended: 5000, Done: 5200},
		9: {K: 9, Phase: phaseOpen, Intended: 8000, Done: 8100},
	}
	got := []evRec{
		{Stream: "s1", Pos: 20, Length: 100, Density: 0.05, Recv: 6000},
		{Stream: "s0", Pos: 10, Length: 100, Density: 0.1, Recv: 1700},
		{Stream: "s1", Pos: 900, Length: 100, Density: 0.15, Recv: 8150},
	}
	lags, err := matchEvents(refs, got, byK)
	if err != nil {
		t.Fatal(err)
	}
	want := []eventLag{
		{K: 7, Phase: phaseOpen, Lag: 1000, Ack: 200},
		{K: 4, Phase: phaseClosed, Lag: 700, Ack: 500},
		{K: 9, Phase: phaseOpen, Lag: 150, Ack: 100},
	}
	for i := range want {
		if lags[i] != want[i] {
			t.Errorf("event %d: %+v, want %+v", i, lags[i], want[i])
		}
	}

	bad := func(name string, evs []evRec, substr string) {
		t.Helper()
		if _, err := matchEvents(refs, evs, byK); err == nil || !strings.Contains(err.Error(), substr) {
			t.Errorf("%s: err = %v, want one mentioning %q", name, err, substr)
		}
	}
	flipped := append([]evRec(nil), got...)
	flipped[1].Density = math.Nextafter(0.1, 1)
	bad("density bits differ", flipped, "reference")
	bad("missing event", got[:2], "received 1 events")
	bad("extra event", append(append([]evRec(nil), got...), got[1]), "unexpected event")
	bad("unknown stream", append([]evRec{{Stream: "s7"}}, got...), "unknown stream")
	bad("malformed stream", append([]evRec{{Stream: "s01"}}, got...), "unknown stream")
}

// The reference tags each event with the request during whose push the
// detector confirmed it: pushing every request before it must not yet
// confirm the event.
func TestReferenceTagsConfirmingRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the N=50 detector")
	}
	spec := ingestSpec{Streams: 1, BodyPts: 250, Periods: 60}
	p, err := newPlan(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	var batches []opRec
	for k := 0; k < len(p.sigs[0])/spec.BodyPts; k++ {
		batches = append(batches, opRec{K: k, Accepted: spec.BodyPts})
	}
	evs, err := reference(p, 0, batches, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("the signal confirmed no event; pick a seed that does")
	}
	for _, ev := range evs {
		before, err := reference(p, 0, batches[:ev.K], 0)
		if err != nil {
			t.Fatal(err)
		}
		through, err := reference(p, 0, batches[:ev.K+1], 0)
		if err != nil {
			t.Fatal(err)
		}
		if contains(before, ev) || !contains(through, ev) {
			t.Errorf("event %+v: confirmed before its request %v, by it %v", ev, contains(before, ev), contains(through, ev))
		}
	}
}

func contains(evs []refEvent, ev refEvent) bool {
	for _, e := range evs {
		if e == ev {
			return true
		}
	}
	return false
}
