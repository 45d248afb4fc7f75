package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"sync"
	"time"
)

// span is one timed layer call of a traced run. Layer spans have the
// check span that issued them as their parent; check spans have parent 0.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Input  string `json:"input,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Alloc is the heap bytes the whole process allocated while the span
	// was open. Only meaningful where one goroutine drives the layer call.
	Alloc uint64 `json:"alloc_bytes"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps the spans of a traced run in memory. A nil *tracer is the
// untraced configuration: begin returns 0 and finish ignores it.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int, input string) int {
	if t == nil {
		return 0
	}
	alloc := heapAllocs()
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	// Alloc holds the counter at start until finish turns it into a delta.
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Input: input, Start: now, Alloc: alloc})
	return id
}

// finish closes span id.
func (t *tracer) finish(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	alloc := heapAllocs()
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[id-1]
	sp.End = now
	sp.Alloc = alloc - sp.Alloc
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile saves the spans as one JSON array.
func (t *tracer) writeFile(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerTotals sums span durations and allocations by span name.
type layerTotals struct {
	dur   map[string]time.Duration
	alloc map[string]uint64
}

func totalsByName(spans []span) layerTotals {
	lt := layerTotals{dur: map[string]time.Duration{}, alloc: map[string]uint64{}}
	for i := range spans {
		sp := &spans[i]
		lt.dur[sp.Name] += sp.dur()
		lt.alloc[sp.Name] += sp.Alloc
	}
	return lt
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
var allocMu sync.Mutex

// heapAllocs returns the cumulative bytes allocated on the heap. It reads
// runtime/metrics, which does not stop the world.
func heapAllocs() uint64 {
	allocMu.Lock()
	defer allocMu.Unlock()
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}
