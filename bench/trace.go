package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer's exported function, recorded by
// the harness around the call (nothing inside the program is edited).
// Spans of one operation share Op; Parent is the ID of the span that
// was open when this one started (0 = none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out when the run ends.
// A nil tracer records nothing, so the same pipeline code serves the
// untraced (timed) and the traced run; the difference between the two
// is the tracing overhead the benchmark reports.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int // open span IDs, innermost last
	op    int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// setOp tags subsequently started spans with the operation's id.
func (t *tracer) setOp(op int) {
	if t != nil {
		t.op = op
	}
}

// start opens a span and returns the function that closes it.
func (t *tracer) start(name string) func() {
	if t == nil {
		return func() {}
	}
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: int64(time.Since(t.epoch))})
	t.stack = append(t.stack, id)
	return func() {
		t.spans[id-1].End = int64(time.Since(t.epoch))
		t.stack = t.stack[:len(t.stack)-1]
	}
}

// selfTimes returns, per span ID, the span's duration minus the part
// of its interval that its direct children cover. Children may nest,
// abut, or overlap one another (parallel callees); the cover is the
// union of their intervals clipped to the parent's.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		var cover, hi int64 = 0, s.Start
		for _, k := range ks {
			lo, end := max(k.Start, hi), min(k.End, s.End)
			if end > lo {
				cover += end - lo
				hi = end
			}
		}
		out[s.ID] = (s.End - s.Start) - cover
	}
	return out
}

// layerTimes is self time summed by span name, with call counts.
type layerTimes struct {
	ns    map[string]int64
	calls map[string]int
}

func layersOf(spans []span) layerTimes {
	self := selfTimes(spans)
	l := layerTimes{ns: map[string]int64{}, calls: map[string]int{}}
	for _, s := range spans {
		l.ns[s.Name] += self[s.ID]
		l.calls[s.Name]++
	}
	return l
}

// us is the self time of the named spans together, in µs.
func (l layerTimes) us(names ...string) float64 {
	var sum int64
	for _, name := range names {
		sum += l.ns[name]
	}
	return float64(sum) / 1e3
}

// perCall is a span's mean self time per call, in µs.
func (l layerTimes) perCall(name string) float64 {
	if l.calls[name] == 0 {
		return 0
	}
	return l.us(name) / float64(l.calls[name])
}

// attributed is the self time, in ns, of every span but the "op" roots:
// what the trace assigns to a layer.
func (l layerTimes) attributed() int64 {
	var sum int64
	for name, v := range l.ns {
		if name != "op" {
			sum += v
		}
	}
	return sum
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
