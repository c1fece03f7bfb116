package sched

// Flags describe how a wrapper may be scheduled, the SPI mirror of the
// engine's wire flags plus the control marker.
type Flags uint8

const (
	// Priority marks a wrapper whose earliest delivery the application
	// requested (the paper's RPC service-id pattern).
	Priority Flags = 1 << iota
	// Unordered marks a wrapper the receiver may deliver outside the
	// per-flow sequence order.
	Unordered
	// Control marks protocol control traffic (rendezvous handshake,
	// synchronous-send acks): header-only entries the engine synthesized.
	Control
)

// Has reports whether any flag of mask is set.
func (f Flags) Has(mask Flags) bool { return f&mask != 0 }

// Wrapper is the read-only descriptor of one packet wrapper in the
// optimization window: the per-packet characteristics the paper's §3.2
// hands to the optimization function (destination, flow tag, length,
// sequence number, flags), kept whole even where no built-in reads one.
type Wrapper struct {
	// Dest is the destination node of the wrapper's gate, the same for
	// every wrapper of one Window.
	Dest int
	// Tag is the logical flow the wrapper belongs to.
	Tag uint64
	// Seq orders the wrapper within its (gate, tag) flow.
	Seq uint32
	// Len is the logical payload size in bytes (0 for control entries).
	Len int
	// WireSize is the wrapper's footprint inside an output packet:
	// entry header plus payload.
	WireSize int
	// Segments is the number of NIC gather segments the wrapper
	// occupies (header plus payload segments).
	Segments int
	// Flags carry the scheduling hints.
	Flags Flags

	// Ref is the engine-private identity of the wrapper. It is opaque:
	// strategies must carry it through into elections untouched. A pick
	// is valid only if the same Elect call's Scan showed it: a wrapper
	// whose Ref is stale (kept from an earlier call, already sent) or
	// foreign is silently dropped from elections by the engine.
	Ref any
}

// Urgent reports whether the optimizer should favor early delivery:
// application-priority wrappers and protocol control.
func (w Wrapper) Urgent() bool { return w.Flags.Has(Priority | Control) }

// Window is the per-rail view over one gate's optimization window: every
// wrapper the rail could send (its pinned submissions plus the common
// load-balanced list), in submission order. The destination is each
// wrapper's Dest.
type Window interface {
	// Pending is the number of wrappers in the window this rail could
	// send, including data wrappers currently held back by flow control
	// (the gate's raw backlog) — the window size the paper's §3.2 lists
	// among the optimization function's inputs.
	Pending() int
	// Credits is the flow-control view: how many more eager data
	// wrappers the peer can accept right now (its remaining landing
	// credits), or -1 when flow control is disabled. Data wrappers
	// beyond the budget are already hidden from Scan; Credits lets a
	// strategy modulate its decisions as backpressure builds. It is the
	// one flow-control signal Scan does not show, and the engine answers
	// it from the gate's credit count, keeping no state for it.
	Credits() int
	// Scan visits the electable wrappers in submission order until visit
	// returns false. The view is stable for the duration of one Elect
	// call, and the engine accepts a pick only if a Scan of that call
	// showed it. Data wrappers beyond the peer's credit budget are not
	// visited (see Credits).
	Scan(visit func(w Wrapper) bool)
}

// Election is the strategy's answer: an ordered train of wrappers to
// leave the window as one physical packet. The zero value is an empty
// election; Pick appends and maintains the running wire-size and
// gather-segment totals that accumulation strategies budget with.
type Election struct {
	entries []Wrapper
	bytes   int
	segs    int
}

// Reset empties the election for reuse, keeping the train's storage: a
// strategy that owns one Election and resets it at the top of every
// Elect allocates nothing per election. The old picks are cleared, so
// the storage never pins a wrapper's Ref past the election that made it.
func (e *Election) Reset() {
	clear(e.entries)
	*e = Election{entries: e.entries[:0]}
}

// Pick appends a wrapper to the train and returns the election for
// chaining.
func (e *Election) Pick(w Wrapper) *Election {
	e.entries = append(e.entries, w)
	e.bytes += w.WireSize
	e.segs += w.Segments
	return e
}

// Len is the number of picked wrappers.
func (e *Election) Len() int { return len(e.entries) }

// Empty reports whether nothing was picked (nil-safe).
func (e *Election) Empty() bool { return e == nil || len(e.entries) == 0 }

// WireSize is the accumulated wire footprint of the train.
func (e *Election) WireSize() int { return e.bytes }

// Segments is the accumulated NIC gather-segment count of the train.
func (e *Election) Segments() int { return e.segs }

// Wrappers returns the picked train in pick order.
func (e *Election) Wrappers() []Wrapper { return e.entries }

// Fits reports whether picking w would keep the train within the rail's
// aggregation budget: the native gather capacity and the eager-protocol
// limit (the rendezvous threshold, which also caps aggregation). A rail
// may legally report RdvThreshold 0 — it never switches to rendezvous —
// which means no byte budget, not a zero-byte one.
func (e *Election) Fits(w Wrapper, rail RailInfo) bool {
	return e.FitsWithin(w, rail.Caps.MaxSegments, rail.Caps.RdvThreshold)
}

// FitsWithin is Fits against explicit segment and byte budgets, for
// strategies that scale the aggregation limit themselves. A byte budget
// of zero or less means unlimited.
func (e *Election) FitsWithin(w Wrapper, maxSegs, maxBytes int) bool {
	return e.segs+w.Segments <= maxSegs && (maxBytes <= 0 || e.bytes+w.WireSize <= maxBytes)
}
