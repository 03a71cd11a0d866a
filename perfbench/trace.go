package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req; Parent is the index of the span that caused this one, or -1.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run writes them out. A nil
// recorder records nothing, which is how the untraced pass runs the same
// code. Spans may be recorded from several goroutines (the durability
// layer's file operations run wherever the manager calls them).
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index (-1 when not recording).
func (r *recorder) begin(name string, parent, req int) int {
	if r == nil {
		return -1
	}
	t := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Parent: parent, Req: req, Start: t, End: -1})
	return len(r.spans) - 1
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	t := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].End = t
	r.mu.Unlock()
}

// len returns the number of spans recorded so far.
func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// named returns the closed spans with the given name.
func (r *recorder) named(name string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the named spans' durations in the given unit.
func (r *recorder) durations(name string, unit time.Duration) []float64 {
	ss := r.named(name)
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.dur()) / float64(unit)
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children's spans cover (overlapping children
// count once, and a child's time outside its parent does not count).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		var iv [][2]int64
		for _, c := range children[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				iv = append(iv, [2]int64{a, b})
			}
		}
		sort.Slice(iv, func(x, y int) bool { return iv[x][0] < iv[y][0] })
		var covered, curA, curB int64
		curA, curB = -1, -1
		for _, v := range iv {
			if v[0] > curB {
				covered += curB - curA
				curA, curB = v[0], v[1]
			} else if v[1] > curB {
				curB = v[1]
			}
		}
		covered += curB - curA
		out[i] = s.dur() - covered
	}
	return out
}

// write stores the spans as JSON lines.
func (r *recorder) write(name string) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
