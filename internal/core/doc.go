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
// with many requests in flight can take the same callback (IsendvInto,
// IrecvvMaskedInto) and learn which request finished without scanning
// them, as MAD-MPI's collective executor does.
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
// linkSend, transmit and the NIC
// completion — takes the output alone, and the two events of its life are
// method values bound once per recycled output. Per-gate state that is
// indexed by rail (the pinned window lists and the SPI views) grows with
// Attach too; per-flow state is one tagTable each way.
//
// # Engine performance
//
// The engine's own cost is held down by free-list recycling (pool.go):
// packet wrappers, output trains, held receive entries and the
// per-train encode scratch are recycled on plain per-engine slices, and
// the bytes themselves travel in reference-counted wire frames
// (simnet.Frame) drawn from the fabric's list. sync.Pool is deliberately
// not used — its GC-driven emptying would couple allocation behavior to
// collector timing in packages that promise determinism. A byte is
// copied once below the engine. An eager train is flattened into its
// frame when it is handed to the driver, the NIC delivers that frame, the
// reliability layer retransmits that frame, and the receive path scatters
// out of it. An RDMA body chunk makes no frame: the NIC reads the
// caller's iovec when the chunk's DMA read ends and places the bytes
// straight into the landing buffer (the landings registry, rdv.go), before
// the send request's completion can hand the sender's memory back. A
// reissue's bytes come from there as well: a reliable send completes
// only when the receiver reports its body landed, and a reissue still
// reading after that places nothing. The
// ownership rules that make recycling safe are documented in pool.go; the
// short form is that wrappers own their iovec backing (isendIov copies
// the caller's segment headers), user memory is read for the last time
// when the frame is filled or the DMA read ends, whoever parks frame
// bytes holds a reference, and strategies cannot retain
// window views (the spileak analyzer enforces the SPI aliasing
// contract). Three more objects live for one election, one NIC
// transaction and one receive completion, and are owned rather than
// allocated each time. The election a built-in strategy returns is that
// strategy value's own, reset at its next Elect with its picks cleared;
// electOutput reads it before anything can elect again and keeps only
// the *packet behind each Ref. A transaction inside the NIC is a
// simnet flight, drawn from the fabric's list at Submit — which copies
// the driver's Tx and keeps nothing of it but an RDMA gather list's
// slice header — and held by the events the NIC scheduled for it: the
// sender-side completion and every delivery, late duplicates included;
// the last to fire files it back. The deferred
// completion of an eager receive is a recvDone (pool.go), the engine's
// from the match until the copy cost has elapsed, filed back as its
// event fires. Each binds its callbacks once, so none of the three
// events allocates a closure, and a plain Irecv's one-segment landing
// area is a field of its request. What a steady-state message leaves on
// the heap is what its caller keeps: the request of a nonblocking call.
// The caller of a blocking Send, Ssend, Recv or RecvMasked never sees
// its request, so that request is the engine's (as MPI frees a blocking
// call's request inside the call): taken from a per-engine free list and
// filed back before the call returns. The rule that makes this safe:
// once a request completes, no engine record touches it again — every
// unit of a send retires exactly once, and a receive completes only
// after it has left every list that matches or grants it.
//
// Work run from scheduler callbacks follows the same rule: whatever is
// pushed with World.At / After or handed to a NIC is a callback bound
// once, on a record that is owned and recycled or on a FIFO. A PostSendv
// / PostRecvvMasked waits out its submit overhead in the engine's post
// FIFO (every such wait lasts SubmitOverhead, so they end in the order
// they began) on a request in its caller's storage, so a caller that
// keeps its requests in a slab needs neither an object nor a closure per
// message; a rendezvous body runs on recycled rdvSend / rdvRecv records,
// its plan copied into the transaction, with one recycled rdmaChain per
// rail that computes each next chunk as it goes; the link layer takes
// its linkFrames from a free list, encodes headers into scratch, and
// binds its retransmit check and delayed ack once per record or gate. A
// timer cannot be cancelled, so a record counts the events still pending
// on it; all of a record's timers wait the same delay and fire in the
// order they were armed, so a count also tells which of them are void (a
// delayed ack superseded by a later one, a retransmit check armed before
// the latest retransmission); and a record returns to its list only once
// it is retired and the count is zero — the rule of the NIC's flight. An
// rdvRecv keeps no count: under reliability its one body watch is
// pending from the grant on, and the watch that finds the transaction
// landed files the record back.
// Options.NoRecycle turns every pool off for A/B comparison: the
// replayed timeline must be byte-identical either way, which the pooling
// property test in internal/replay asserts. The repo benchmark
// (benchmark/, workload ring-replay-1024) measures the resulting host
// cost and allocs/op, and allocation-regression pins live in
// alloc_test.go.
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
// (1 016 B) and Gate (568 B) each fill their malloc size class (1 024
// and 576 B, counting the 8 B header a pointerful object over 512 B
// carries), and one more word in either moves the 64 B ping-pong's heap
// bytes per operation by about 3 %.
package core
