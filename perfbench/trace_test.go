package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []span{
		// 0: a root [0,100) with children 1 [10,30), 2 [20,50) (they
		// overlap: their union is [10,50)), and 3 [90,120), which runs
		// past its parent's end, so only [90,100) counts.
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50},
		{Name: "c", Parent: 0, Start: 90, End: 120},
		// 4: a grandchild under 1; it is subtracted from 1, not from 0.
		{Name: "d", Parent: 1, Start: 12, End: 18},
		// 5: an unrelated root with no children keeps its whole duration.
		{Name: "other", Parent: -1, Start: 200, End: 260},
	}
	want := []int64{100 - 40 - 10, 20 - 6, 30, 30, 6, 60}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
}

func TestRecorderNilIsNoOp(t *testing.T) {
	var r *recorder
	sp := r.begin("x", -1, 0)
	r.end(sp)
	if sp != -1 {
		t.Errorf("nil recorder returned span %d", sp)
	}
}

func TestRecorderParentsAndDurations(t *testing.T) {
	r := newRecorder()
	outer := r.begin("outer", -1, 7)
	inner := r.begin("inner", outer, 7)
	r.end(inner)
	r.end(outer)
	open := r.begin("open", -1, 8)
	if got := r.named("inner"); len(got) != 1 || got[0].Parent != outer || got[0].Req != 7 {
		t.Errorf("inner span = %+v", got)
	}
	if got := r.named("open"); len(got) != 0 {
		t.Errorf("an unclosed span was reported: %+v", got)
	}
	r.end(open)
	self := selfTimes(r.spans)
	if self[outer] < 0 || self[outer] > r.spans[outer].dur() {
		t.Errorf("outer self time %d outside [0, %d]", self[outer], r.spans[outer].dur())
	}
}
