// Package core implements the NewMadeleine communication engine — the
// primary contribution of the paper. The engine is organized in the three
// layers of Figure 1:
//
//   - the collect layer wraps each piece of application data in a packet
//     wrapper carrying the metadata needed for identification on the
//     receiving side (tag, sequence number, source) and inserts it into
//     the submission lists: one list per driver for technology-pinned
//     traffic, plus a common list for automatic load balancing;
//
//   - the optimizing and scheduling layer keeps the packet wrappers in an
//     optimization window while the NICs are busy. As soon as a NIC
//     becomes idle, the selected strategy analyzes the backlog and
//     synthesizes the next ready-to-send packet: several wrappers —
//     possibly from different logical flows — may be aggregated into one
//     physical packet, wrappers may be reordered, large bodies are turned
//     into rendezvous requests, and bodies may be split across rails.
//     Strategies are external: they implement the public SPI of package
//     sched, and this package only adapts the window to the SPI views
//     and validates the elections that come back (see strategy.go);
//
//   - the transfer layer (package drivers) controls the NICs through the
//     minimal network API and calls back into the scheduler whenever a
//     card drains.
//
// The receive side is defended against overload: with Options.Credits
// the collect layer holds eager data wrappers back once the peer's
// landing credits are exhausted (credit replenishment rides outbound
// traffic as an aggregable control entry), Options.MaxGrants bounds
// concurrent inbound rendezvous transactions, and protocol anomalies on
// the receive path are counted per gate instead of crashing the node.
//
// Two application interfaces are provided, matching the paper's §3.4: the
// Madeleine-style incremental pack/unpack interface (a message is several
// pieces of data located anywhere in user space, delimited by begin/end
// calls) and a tagged Isend/Irecv/Wait/Test interface on which MAD-MPI
// (package madmpi) is built.
//
// Both take the calling simulated process, which sleeps through the host
// costs of a submission (Options.SubmitOverhead, the software-gather
// memcpy) and parks in Wait, where the completing request wakes it and
// nobody else on the node. A driver that is itself event-driven — it
// runs in World.At callbacks and has no process — submits through
// Gate.PostSendv and Gate.PostRecvvMasked instead: the same costs elapse
// as timed continuations on the event queue, pushed exactly where the
// process's sleeps would have pushed its wake-ups, and completion is
// reported to a callback. A workload driven either way produces the same
// schedule event for event (post_test.go); package replay re-issues
// recordings this way and needs no goroutine per operation. A process
// with many requests in flight can take a callback too (IsendvInto,
// IrecvvMaskedInto): it numbers each request, and one callback bound for
// all of them learns from the number which one finished, with no closure
// per request and no scan, as MAD-MPI's collective executor does.
//
// # Engine state
//
// State lives on the thing it describes. One rail record (engine.go) holds
// everything the engine keeps per attached driver — the claim counter and
// overhead window of the outputs being fed to it, the pre-staged output,
// the bandwidth sampler, the bytes carried and the link layer's failed /
// probing state — and Engine.rails is the only slice Attach grows:
// sched.RailInfo is a projection of the record (the driver's capability
// report plus the sampler's estimate), Stats.PerDriverBytes a snapshot of
// it. One output (packet.go) records its gate, its rail and its totals
// when it is elected, so every later step — account, feed, send,
// linkSend, transmit and the NIC completion — takes the output alone.
// Per-gate state that is indexed by rail (the pinned window lists and the
// SPI views) grows with Attach too. Per-flow ordering state is one flat table per gate, an
// entry per tag holding both directions (gate.go, flowTable), with no map
// and no record per entry; a flow of one message, a collective step,
// keeps none (IsendvOnceInto).
//
// # Engine performance
//
// The engine's per-message records are recycled on plain per-engine free
// lists, and the bytes in flight travel in reference-counted wire frames
// drawn from the fabric's list: pool.go states what is recycled, who owns
// what when, and why a completed request is safe to reuse. Work run from
// scheduler callbacks follows the same rule — a callback bound once, on
// a record that is owned and recycled, never a closure per message. Each
// step an engine defers (a post's submit overhead, an eager receive's
// copy, an output's schedule overhead, a retransmit check, a delayed ack,
// a rendezvous body watch, a rail probe) is one entry of its one timer
// queue and one kernel event (timer.go), and a step that must not act
// once its record moved on carries the record's generation. Only a post's
// software-gather copy keeps a closure of its own. The package's
// tests watch every engine's world (selfcheck_test.go), and alloc_test.go
// pins the allocations.
//
// An election attempt costs what the strategy can elect, not the size of
// the window: on a credit-starved gate the window holds the whole held-back
// backlog and shows none of it. Two window invariants carry this. Every
// data wrapper in a gate's window is in its credit FIFO (submit, account,
// convertToRTS and unstage keep the two in step), so the gate's other
// wrappers number the window size minus the FIFO length, and
// scanEligible stops once it has shown those and the credited data
// wrappers its rail sees. And window.big counts the queued data wrappers
// that reach the smallest positive rendezvous threshold of any rail, so
// prepare walks the window only while one of them might convert. A pick
// is validated against the stamp the strategy's own Scan left on it (see
// electOutput), so no step walks the view a second time. The counts sit
// in the window, not in Engine or Gate, for a measured reason: Engine
// (992 B, at most 1 016) and Gate (568 B) sit at the top of their malloc
// size classes (1 024 and 576 B, counting the 8 B header a pointerful
// object over 512 B carries), and a word past either top moves the 64 B
// ping-pong's heap bytes per operation by about 3 %.
package core
