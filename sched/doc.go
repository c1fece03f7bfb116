// Package sched is the public scheduling SPI of nmad: the paper's
// "extensible and programmable set of optimization strategies" (§3.2) as
// a first-class API. A Strategy decides, each time a rail idles, which
// packet wrappers leave the optimization window and in what train — the
// whole point of NewMadeleine's optimizer-scheduler layer — and this
// package lets that decision be implemented outside the engine.
//
// # The contract
//
// The engine asks the strategy for one election per (gate, rail) pair:
//
//	func (s mine) Elect(w sched.Window, rail sched.RailInfo) *sched.Election
//
// Window is a read-only, per-rail view over the wrappers the rail could
// send, in submission order, each described by the inputs the paper
// lists: destination, flow tag, length, sequence number and flags.
// RailInfo carries the nominal capability report of the transfer layer
// (rendezvous threshold, gather capacity, RDMA, latency/bandwidth) plus
// the functional characteristic the paper's feedback loop needs: the
// achieved bandwidth sampled from live traffic (RailInfo.Sampled).
//
// The strategy answers with an Election — an ordered train of picked
// wrappers — or nil to leave the rail idle. The Election builder tracks
// accumulated wire bytes and gather segments so accumulation strategies
// are a few lines:
//
//	el := new(sched.Election)
//	w.Scan(func(pw sched.Wrapper) bool {
//		if el.Fits(pw, rail) {
//			el.Pick(pw)
//		}
//		return el.Segments() < rail.Caps.MaxSegments
//	})
//	return el
//
// An election is read at once: the engine (and Chain) consumes it before
// asking the same strategy value again and keeps nothing of it. A
// strategy may therefore own its Election — Reset it at the top of Elect,
// return a pointer to it — and bind its Scan visitor once, as a method
// value in its constructor; the built-ins do both and allocate nothing
// per election, so an *Election a built-in returns is valid until that
// strategy value's next Elect. The example above, which makes a new
// election and a new closure per call, is equally correct and costs two
// small objects plus the train's storage each time.
//
// The engine enforces the contract, not the strategy: picks that are
// stale, duplicated, or that the rail cannot physically gather are
// ignored, so no strategy — however buggy — can lose, duplicate or
// corrupt application data. Per-flow delivery order is restored by the
// receiver's resequencing layer regardless of election order.
//
// # Optional capabilities
//
// A strategy may additionally implement:
//
//   - BodyPlanner, to control how rendezvous bodies split over the rails
//     (the paper's heterogeneous multi-rail transfer). A plan is read at
//     once, like an election, so "split" and "adaptive" return their own
//     storage, valid until that value's next PlanBody;
//   - Attacher, to observe rails as the engine binds them;
//   - Completer, to receive per-transaction feedback (bytes, entries,
//     duration) after the NIC finishes each physical packet, as
//     examples/customstrategy does. The achieved bandwidth needs no
//     hook: RailInfo.Sampled carries it, and it is all "adaptive" reads.
//
// Chain composes strategies with first-non-empty-election-wins
// semantics, for fallback stacks.
//
// # Registration
//
// Strategies register by name — Register returns an error on duplicates —
// and engines accept either a registry name or a Strategy value directly
// (nmad.WithStrategy). Registered constructors produce one instance per
// engine; a Strategy value handed to several engines is shared between
// them and must synchronize any internal state of its own — which every
// built-in has (its election, and a planner's body plan), so a value from
// New serves the engines of one world, never two worlds running on
// different goroutines.
//
// The built-ins live here too, written purely against this SPI:
// "default" (FIFO, no optimization), "aggreg" (the paper's aggregation
// strategy), "split" (multi-rail body splitting), "prio" (priority
// preemption) and "adaptive" (aggregation and splitting driven by the
// sampled achieved bandwidth).
package sched
