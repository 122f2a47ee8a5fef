package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// spanRec is one traced call into a layer, recorded by the benchmark
// around the call. Spans of one request share id; parent is the index
// of the enclosing span, or -1.
type spanRec struct {
	id     int64
	parent int32
	name   string
	start  time.Duration // since the tracer's start
	end    time.Duration
}

// tracer keeps spans in a preallocated in-memory buffer and writes them
// out once the run ends. A nil *tracer records nothing, which is how
// untraced runs stay free of tracing cost.
type tracer struct {
	t0      time.Time
	spans   []spanRec
	next    atomic.Int64
	dropped atomic.Int64
}

// maxSpans bounds the buffer; a serving run records about three spans
// per query.
const maxSpans = 1 << 18

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]spanRec, maxSpans)}
}

// span opens a span and returns its index, to close with end and to
// name as a child's parent. A full buffer drops the span (index -1).
func (t *tracer) span(id int64, parent int32, name string) int32 {
	if t == nil {
		return -1
	}
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	t.spans[i] = spanRec{id: id, parent: parent, name: name, start: time.Since(t.t0)}
	return int32(i)
}

// spanAt opens a span whose start lies in the past (an open-loop
// request begins at its due time, not when its caller picks it up).
func (t *tracer) spanAt(id int64, parent int32, name string, start time.Time) int32 {
	i := t.span(id, parent, name)
	if i >= 0 {
		t.spans[i].start = start.Sub(t.t0)
	}
	return i
}

func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].end = time.Since(t.t0)
}

// write stores the spans as JSON at path: one object per span with its
// request id, name, parent index and start/end in microseconds.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	n := min(t.next.Load(), int64(len(t.spans)))
	fmt.Fprintf(w, "{\"dropped\": %d, \"spans\": [", t.dropped.Load())
	for i, s := range t.spans[:n] {
		if i > 0 {
			w.WriteString(",")
		}
		name, _ := json.Marshal(s.name)
		fmt.Fprintf(w, "\n{\"index\": %d, \"id\": %d, \"parent\": %d, \"name\": %s, \"start_us\": %.3f, \"end_us\": %.3f}",
			i, s.id, s.parent, name, float64(s.start)/1e3, float64(s.end)/1e3)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
