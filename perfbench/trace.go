package main

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request or one CV test
// share op; parent is 0 for a root.
type span struct {
	name       string
	id, parent int
	op         int
	start, end time.Time
}

// recorder keeps the traced run's spans in memory until the run ends. A nil
// recorder records nothing, so the untraced run pays nothing for it.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func (r *recorder) start(name string, parent, op int) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, id: len(r.spans) + 1, parent: parent, op: op, start: time.Now()})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Now()
	r.mu.Lock()
	r.spans[id-1].end = now
	r.mu.Unlock()
}

// do runs fn inside a span named name.
func (r *recorder) do(name string, parent, op int, fn func() error) error {
	id := r.start(name, parent, op)
	err := fn()
	r.end(id)
	return err
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.name] += s.end.Sub(s.start) - covered(s, children[s.id])
	}
	return out
}

// covered is how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.start, k.end
		if a.Before(parent.start) {
			a = parent.start
		}
		if b.After(parent.end) {
			b = parent.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// allocMB runs fn and returns the megabytes the process allocated
// meanwhile. Only meaningful while nothing else allocates.
func allocMB(fn func() error) (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / 1e6, err
}
