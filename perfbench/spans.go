package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into the program. Spans of one
// request share Req; Parent indexes the enclosing span (-1 for the request's
// root).
type span struct {
	Req    uint64 `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	N      int    `json:"n,omitempty"` // work items the call handled, when counted
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	reqs  uint64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// request allocates a request span ID and opens its root span.
func (t *tracer) request(layer string) (req uint64, root int) {
	if t == nil {
		return 0, -1
	}
	t.mu.Lock()
	t.reqs++
	req = t.reqs
	t.mu.Unlock()
	return req, t.begin(req, -1, layer)
}

// begin opens a span and returns its ID.
func (t *tracer) begin(req uint64, parent int, layer string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Req: req, ID: id, Parent: parent, Layer: layer, Start: now, End: -1})
	return id
}

// end closes a span.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// endN closes a span that handled n work items.
func (t *tracer) endN(id, n int) {
	if t == nil || id < 0 {
		return
	}
	t.end(id)
	t.mu.Lock()
	t.spans[id].N = n
	t.mu.Unlock()
}

// countedSpan is one closed span's duration and work count (1 if uncounted).
type countedSpan struct {
	d time.Duration
	n int
}

// counted returns every closed span of a layer.
func (t *tracer) counted(layer string) []countedSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []countedSpan
	for _, s := range t.spans {
		if s.Layer == layer && s.End >= 0 {
			out = append(out, countedSpan{time.Duration(s.End - s.Start), max(s.N, 1)})
		}
	}
	return out
}

// layerSelf is one layer's summed self time.
type layerSelf struct {
	layer string
	ms    float64
	n     int
}

// selfTimes returns each layer's self time: its spans' durations minus the
// part of each interval covered by the span's children.
func (t *tracer) selfTimes() []layerSelf {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	sums := make(map[string]*layerSelf)
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		self := s.End - s.Start - covered(s, children[s.ID])
		ls := sums[s.Layer]
		if ls == nil {
			ls = &layerSelf{layer: s.Layer}
			sums[s.Layer] = ls
		}
		ls.ms += float64(self) / 1e6
		ls.n++
	}
	out := make([]layerSelf, 0, len(sums))
	for _, ls := range sums {
		out = append(out, *ls)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].layer < out[j].layer })
	return out
}

// covered is the length of the union of the children's intervals, clipped to
// the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
			continue
		}
		curE = max(curE, e)
	}
	return total + curE - curS
}

// writeFile writes every span as one JSON line.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
