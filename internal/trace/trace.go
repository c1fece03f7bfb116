// Package trace records the engine's scheduling decisions on the virtual
// timeline: wrapper submissions, elections, physical packet departures,
// deliveries and rendezvous transitions. It exists to make the optimizer
// observable — the aggregated-packet trains and piggybacked control
// entries of the paper are directly visible in a dump — and to debug
// strategies.
//
// Recording is opt-in (core.Options.Tracer); a nil recorder costs one
// pointer test per event site.
package trace

import (
	"fmt"
	"io"
	"strings"

	"nmad/internal/sim"
)

// Kind classifies a trace event.
type Kind uint8

const (
	// Submit: a packet wrapper entered the collect layer.
	Submit Kind = iota
	// Elect: the strategy synthesized an output packet for a rail.
	Elect
	// Depart: the transfer layer accepted an output packet.
	Depart
	// Arrive: a physical packet was delivered by a rail.
	Arrive
	// Deliver: one wrapper was matched to a posted receive.
	Deliver
	// Unexpected: a wrapper arrived before its receive was posted.
	Unexpected
	// RdvStart: a data wrapper was converted to a rendezvous request.
	RdvStart
	// RdvGrant: the receiver granted a rendezvous (CTS sent).
	RdvGrant
	// RdvBody: a rendezvous body fragment was placed.
	RdvBody
	// Complete: a request completed.
	Complete
	// ProtoError: a receive-path protocol anomaly was counted and
	// dropped instead of crashing the node.
	ProtoError
	// Retransmit: the reliability layer re-sent an unacknowledged frame
	// (or re-issued a rendezvous body span).
	Retransmit
	// RailEvent: a rail changed liveness (Note: "failed" / "recovered").
	RailEvent
	nKinds
)

var kindNames = [nKinds]string{
	"submit", "elect", "depart", "arrive", "deliver",
	"unexpected", "rdv-start", "rdv-grant", "rdv-body", "complete",
	"proto-error", "retransmit", "rail-event",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one recorded engine action.
type Event struct {
	At   sim.Time
	Kind Kind
	// Node is the engine's node id.
	Node int
	// Peer is the remote node, -1 when not applicable.
	Peer int
	// Tag is the flow tag, 0 when not applicable.
	Tag uint64
	// Bytes is the payload size involved.
	Bytes int
	// Rail is the driver index, -1 when not applicable.
	Rail int
	// Entries is the wrapper count of an output packet (Elect/Depart).
	Entries int
	// Note carries free-form detail.
	Note string
}

// recorderFirstCap sizes a recorder's first allocation: a replayed node
// records a few hundred events, and growing there from a nil slice costs
// more allocations than starting here.
const recorderFirstCap = 128

// Recorder accumulates events, optionally as a bounded ring.
type Recorder struct {
	events []Event
	limit  int // 0 = unbounded
	start  int // ring head when limit > 0
	total  int
	counts [nKinds]int
}

// NewRecorder returns an unbounded recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// NewRingRecorder keeps only the most recent limit events (the counters
// still cover everything).
func NewRingRecorder(limit int) *Recorder {
	if limit <= 0 {
		panic("trace: ring limit must be positive")
	}
	return &Recorder{limit: limit}
}

// Record appends one event. Safe to call on a nil recorder.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	r.total++
	if int(ev.Kind) < len(r.counts) {
		r.counts[ev.Kind]++
	}
	if r.limit > 0 && len(r.events) == r.limit {
		r.events[r.start] = ev
		r.start = (r.start + 1) % r.limit
		return
	}
	if r.events == nil {
		first := recorderFirstCap
		if r.limit > 0 {
			first = min(first, r.limit)
		}
		r.events = make([]Event, 0, first)
	}
	r.events = append(r.events, ev)
}

// Events returns the retained events in chronological order. The slice
// is read-only: an unbounded recorder returns its own storage, capped at
// its length, so a later Record never shows through it and an append to
// it copies. A ring recorder returns a copy, since once full it
// overwrites its oldest slot in place, slot 0 included.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	if r.limit == 0 {
		return r.events[:len(r.events):len(r.events)]
	}
	if r.start == 0 {
		return append([]Event(nil), r.events...)
	}
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.start:]...)
	out = append(out, r.events[:r.start]...)
	return out
}

// Total reports how many events were recorded (including evicted ones).
func (r *Recorder) Total() int {
	if r == nil {
		return 0
	}
	return r.total
}

// Count reports how many events of one kind were recorded.
func (r *Recorder) Count(k Kind) int {
	if r == nil || int(k) >= len(r.counts) {
		return 0
	}
	return r.counts[k]
}

// Filter returns the retained events of one kind.
func (r *Recorder) Filter(k Kind) []Event {
	var out []Event
	for _, ev := range r.Events() {
		if ev.Kind == k {
			out = append(out, ev)
		}
	}
	return out
}

// Dump writes a readable timeline.
func (r *Recorder) Dump(w io.Writer) error {
	for _, ev := range r.Events() {
		if _, err := fmt.Fprintln(w, ev.String()); err != nil {
			return err
		}
	}
	return nil
}

// String renders one event as a timeline line.
func (ev Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%12v  node%d  %-10s", ev.At, ev.Node, ev.Kind)
	if ev.Peer >= 0 {
		fmt.Fprintf(&b, " peer=%d", ev.Peer)
	}
	if ev.Rail >= 0 {
		fmt.Fprintf(&b, " rail=%d", ev.Rail)
	}
	if ev.Tag != 0 {
		fmt.Fprintf(&b, " tag=%#x", ev.Tag)
	}
	if ev.Bytes > 0 {
		fmt.Fprintf(&b, " bytes=%d", ev.Bytes)
	}
	if ev.Entries > 0 {
		fmt.Fprintf(&b, " entries=%d", ev.Entries)
	}
	if ev.Note != "" {
		fmt.Fprintf(&b, "  (%s)", ev.Note)
	}
	return b.String()
}

// Summary formats the per-kind counters.
func (r *Recorder) Summary() string {
	if r == nil {
		return "trace: disabled"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d events", r.total)
	for k := Kind(0); k < nKinds; k++ {
		if r.counts[k] > 0 {
			fmt.Fprintf(&b, "  %s=%d", k, r.counts[k])
		}
	}
	return b.String()
}
