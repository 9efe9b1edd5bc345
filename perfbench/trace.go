package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Parent 0 marks a root
// (a client operation); Req is the client operation the span belongs
// to. Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	stopped bool
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent int, req uint64, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// open records a span whose end is not known yet; close sets it.
func (t *tracer) open(name string, parent int, req uint64) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	return t.add(name, parent, req, now, now)
}

func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	end := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// durations is, per span name, every span's duration in milliseconds.
func (t *tracer) durations() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string][]float64)
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e6)
	}
	return out
}

// coveredNanos is the length of the union of the children's intervals,
// clipped to [lo, hi].
func coveredNanos(lo, hi int64, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		if open && x[0] <= curHi {
			curHi = max(curHi, x[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = x[0], x[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfSumError is |Σ self times − connections × wall| ÷ (connections ×
// wall), where a span's self time is its duration minus the part its
// children cover: how far the per-layer self times fall from accounting for the
// traced wall time of every client connection. Where a span fans out to
// concurrent children of one name (a coordinator's parallel
// subrequests), only the longest of them, with its descendants, is on
// the blocking path and counted; the parent's self time on that path is
// what the longest child does not cover. The error is then the time no
// root span covers plus any child reaching outside its parent.
func (t *tracer) selfSumError(wall time.Duration, connections int) float64 {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[int][]span)
	var roots []span
	for _, s := range spans {
		if s.Parent == 0 {
			roots = append(roots, s)
		} else {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var walk func(s span) int64
	walk = func(s span) int64 {
		kids := blockingChildren(children[s.ID])
		total := s.End - s.Start - coveredNanos(s.Start, s.End, kids)
		for _, k := range kids {
			total += walk(k)
		}
		return total
	}
	var total int64
	for _, r := range roots {
		total += walk(r)
	}
	want := float64(connections) * float64(wall.Nanoseconds())
	d := float64(total) - want
	if d < 0 {
		d = -d
	}
	return ratio(d, want)
}

// blockingChildren drops, from each set of same-named children whose
// intervals overlap, all but the longest.
func blockingChildren(kids []span) []span {
	byName := make(map[string][]span)
	for _, k := range kids {
		byName[k.Name] = append(byName[k.Name], k)
	}
	var out []span
	for _, group := range byName {
		sort.Slice(group, func(i, j int) bool { return group[i].Start < group[j].Start })
		best, end := group[0], group[0].End
		for _, k := range group[1:] {
			if k.Start < end {
				if k.End-k.Start > best.End-best.Start {
					best = k
				}
				end = max(end, k.End)
				continue
			}
			out = append(out, best)
			best, end = k, k.End
		}
		out = append(out, best)
	}
	return out
}

// stop ends recording at the end of a timed phase, so shutdown work
// (a server's final snapshot) is not traced.
func (t *tracer) stop() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.stopped = true
	t.mu.Unlock()
}

// reset drops every span recorded so far (set-up traffic) and restarts
// the clock.
func (t *tracer) reset() *tracer {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.spans = nil
	t.t0 = time.Now()
	t.mu.Unlock()
	return t
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// durByReq maps each client request id to the summed duration, in
// milliseconds, of its spans with the given name.
func (t *tracer) durByReq(name string) map[uint64]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[uint64]float64)
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Req] += float64(s.End-s.Start) / 1e6
		}
	}
	return out
}
