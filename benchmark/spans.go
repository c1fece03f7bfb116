package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the driver made into a layer. Times are
// nanoseconds since the log was created. Parent is the index of the span
// that was open when this one began, -1 for a root. A call made many
// times from inside the simulation (an Isend per message) is folded into
// one span: Calls counts the calls, BusyNs sums their durations, and
// Start/End bracket the first call and the last return.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Calls  int    `json:"calls"`
	BusyNs int64  `json:"busy_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog is
// the untraced run: every method is a no-op behind one pointer test.
type spanLog struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span indices
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) parent() int {
	if len(l.open) == 0 {
		return -1
	}
	return l.open[len(l.open)-1]
}

// begin opens a span under the innermost open one.
func (l *spanLog) begin(name string) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{Name: name, Start: int64(time.Since(l.t0)), Parent: l.parent(), Calls: 1})
	l.open = append(l.open, len(l.spans)-1)
}

// end closes the innermost open span.
func (l *spanLog) end() {
	if l == nil {
		return
	}
	i := l.open[len(l.open)-1]
	l.open = l.open[:len(l.open)-1]
	s := &l.spans[i]
	s.End = int64(time.Since(l.t0))
	s.BusyNs = s.End - s.Start
}

// callSpan folds the repeated calls of one call site into one span.
type callSpan struct {
	log *spanLog
	idx int
}

// calls registers a folded span; its parent is the span open when the
// first call is made.
func (l *spanLog) calls(name string) *callSpan {
	if l == nil {
		return nil
	}
	l.spans = append(l.spans, span{Name: name, Start: -1, Parent: -1})
	return &callSpan{log: l, idx: len(l.spans) - 1}
}

// enter stamps the start of one call; pass the result to leave.
func (c *callSpan) enter() int64 {
	if c == nil {
		return 0
	}
	return int64(time.Since(c.log.t0))
}

func (c *callSpan) leave(start int64) {
	if c == nil {
		return
	}
	now := int64(time.Since(c.log.t0))
	s := &c.log.spans[c.idx]
	if s.Start < 0 {
		s.Start = start
		s.Parent = c.log.parent()
	}
	s.End = now
	s.Calls++
	s.BusyNs += now - start
}

// write dumps the spans as one JSON document.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Spans []span `json:"spans"`
	}{l.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
