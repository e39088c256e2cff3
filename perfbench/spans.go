package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded from the
// benchmark's side of the call.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for none
	ID     int64  `json:"id"`     // op, request or rank the span belongs to
}

// tracer keeps spans in memory; write dumps them when the run ends. Safe
// for concurrent use.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<14)} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent int, id int64) int {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, ID: id})
	return len(t.spans) - 1
}

// end closes span i and returns its duration.
func (t *tracer) end(i int) time.Duration {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = now
	return time.Duration(now - t.spans[i].Start)
}

// timed runs fn inside a span and returns the span's duration.
func (t *tracer) timed(name string, parent int, id int64, fn func()) time.Duration {
	i := t.begin(name, parent, id)
	fn()
	return t.end(i)
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write dumps the spans as JSON lines into dir, one file per workload that
// the next traced run of it replaces, and returns the file path. The first
// line names the run.
func (t *tracer) write(dir, workload string, seed int64) (path string, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path = filepath.Join(dir, workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"workload": workload, "seed": seed, "spans": t.len()}); err != nil {
		return "", err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return "", err
		}
	}
	return path, w.Flush()
}
