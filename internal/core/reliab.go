package core

import (
	"fmt"

	"nmad/internal/sim"
	"nmad/internal/simnet"
	"nmad/internal/trace"
)

// The link-layer reliability machinery (Options.Reliability). The engine
// normally trusts the fabric; on a lossy one (simnet.FaultProfile) every
// eager train is framed by one extra kindLink entry prepended to the
// train: a per-gate frame sequence number plus a piggybacked cumulative
// ack floor. The receiver deduplicates whole trains by frame sequence
// before dispatching any entry — the per-flow resequencing above is
// untouched — and acknowledges with delayed, coalesced floor updates
// that ride outbound frames for free whenever there are any. The sender
// keeps a reference to the wire frame of every unacked train — the very
// frame the NIC sent, not a copy of it — and retransmits that on timeout;
// a frame that exhausts its retransmit budget declares its rail
// failed: pinned wrappers re-home to the common list, in-flight frames
// re-issue on a surviving rail, elections skip the rail, and a periodic
// ping/pong probe rides the dead rail until it answers again.
//
// Pure link control (acks, probes) is itself unreliable and travels
// directly through the driver, below the optimization window: acking an
// ack would regress, and a lost pure ack is repaired by the next frame
// or by the sender's retransmit provoking a fresh one.
//
// RDMA rendezvous bodies do not travel as trains, so the link layer
// cannot cover them; rdv.go repairs those with a receiver-side progress
// watchdog that re-issues the CTS (see armBodyWatch).

// Link entry subkinds, carried in the aux field of a kindLink header.
const (
	linkFrameTag = 1 + iota // train is reliable; seq = frame, length = ack floor
	linkAckTag              // pure ack; length = ack floor
	linkPingTag             // rail liveness probe
	linkPongTag             // probe answer
)

// Default reliability timings (Options.RetransmitTimeout = 0).
const (
	defaultRetransmitTimeout = 200 * sim.Microsecond
	defaultRetransmitBudget  = 8
	// linkAckDelay is how long the receiver waits before sending a pure
	// ack, hoping an outbound frame piggybacks the floor instead.
	linkAckDelay = 2 * sim.Microsecond
)

// linkFrame is one unacknowledged reliable train: a reference to the wire
// frame it was flattened into, so it can be re-injected verbatim after
// the original segments' buffers were reused.
//
// Records are recycled (Engine.freeLinks). A timer cannot be cancelled,
// so the record counts the events that still refer to it — sending
// transmissions, whose NIC completion arms a check, and checks armed but
// not fired — and returns to the list only once it is acked and both
// counts are zero (see releaseLink). Every check waits the same delay, so
// checks fire in the order they were armed: stale counts the oldest
// pending ones, armed before the latest retransmission, which are void.
type linkFrame struct {
	eng      *Engine
	gate     *Gate
	seq      uint32
	frame    *simnet.Frame // link header + encoded train
	rail     *rail         // rail of the last (re)transmission
	attempts int           // transmissions so far
	acked    bool          // retired: a pending retransmit check is void

	sending, checks, stale int
	// armFn and expireFn are arm and expire, bound when the record is
	// first made: a transmission's NIC completion and the check it arms.
	armFn, expireFn func()
}

// linkTx is the sender half of a gate's link state. Frame sequence
// numbers are issued in order and acks are cumulative, so unacked is
// ordered by seq and an ack retires a prefix of it.
type linkTx struct {
	nextSeq uint32
	acked   uint32 // highest cumulative ack floor seen
	unacked []*linkFrame
}

// linkRx is the receiver half: the cumulative floor (all frames below it
// arrived) plus the out-of-order set above it.
type linkRx struct {
	floor      uint32
	seen       map[uint32]bool
	ackPending bool
	// acks counts the delayed-ack events not yet fired; ackFn is
	// Gate.linkAckDue, bound at the gate's first delayed ack.
	acks  int
	ackFn func()
}

// bodyTimeout is the rendezvous body progress window: generous relative
// to the frame timeout because a body spans many transactions.
func (e *Engine) bodyTimeout() sim.Time { return 2 * e.opts.RetransmitTimeout }

// probeInterval paces the ping/pong liveness probe of a failed rail.
func (e *Engine) probeInterval() sim.Time { return 4 * e.opts.RetransmitTimeout }

// appendLinkHeader appends one encoded link entry to dst.
func appendLinkHeader(dst []byte, sub uint32, seq uint32, floor uint32) []byte {
	return encodeHeader(dst, header{
		kind:   kindLink,
		seq:    seqNum(seq),
		length: floor,
		aux:    sub,
	})
}

// linkSend frames one output as a reliable link frame and hands it to
// the driver: the engine.send path when Options.Reliability is on. The
// link entry — the next frame sequence number plus the current ack floor —
// travels as the train's leading gather segment and counts in its wire
// footprint.
//
// The one flatten of the train (transmit) serves its every transmission:
// the payload segments point into user buffers the application may reuse
// once the NIC is done, and the header scratch is reused by the next
// encode, so the link layer holds on to the frame itself (its own
// reference; the NIC gets the other one) and the completion may recycle
// the wrappers even with retransmissions ahead.
func (e *Engine) linkSend(out *output) {
	g := out.gate
	fr := e.freeLinks.get(e.world, cMissLinks)
	if fr.armFn == nil { // fresh, not recycled
		fr.eng, fr.armFn, fr.expireFn = e, fr.arm, fr.expire
	}
	// The train's own transmission is the first sending one; its
	// completion (output.sent) arms the first check.
	fr.gate, fr.seq, fr.rail, fr.attempts, fr.sending = g, g.ltx.nextSeq, out.rail, 1, 1
	out.link = fr
	g.ltx.nextSeq++
	g.ltx.unacked = append(g.ltx.unacked, fr)
	out.wire += headerSize
	e.stats.WireBytes += headerSize
	// The outbound frame carries the current floor: any pure ack still
	// pending is now redundant.
	g.lrx.ackPending = false
	e.transmit(out)
}

// arm schedules the retransmit check of the transmission that just
// completed. It runs from the NIC's send-completion callback, not at
// submission: the ack clock must not start while the frame still waits
// behind a long wire reservation (a rendezvous body can hold the pair's
// wire for longer than the whole timeout), or an idle fabric would
// retransmit spuriously.
func (fr *linkFrame) arm() {
	fr.sending--
	fr.checks++
	fr.eng.world.After(fr.eng.opts.RetransmitTimeout, fr.expireFn)
}

// expire fires when a check's timeout has elapsed. A check armed before
// the frame's latest retransmission is void — a newer attempt owns the
// frame — as is any check of an acked frame.
func (fr *linkFrame) expire() {
	e, g := fr.eng, fr.gate
	fr.checks--
	if fr.stale > 0 {
		fr.stale--
		e.releaseLink(fr)
		return
	}
	if fr.acked {
		e.releaseLink(fr)
		return
	}
	if fr.attempts >= e.opts.RetransmitBudget {
		if e.aliveRail(fr.rail) == nil {
			// No surviving alternative: the last rail is never declared
			// dead. Keep retrying — on a lossy-but-alive rail this
			// converges; during an outage it rides it out.
			fr.attempts = 0
			e.linkResend(g, fr, fr.rail)
			return
		}
		e.railFail(fr.rail, g.peer)
		return // railFail re-issued every frame of the rail, this one included
	}
	r := fr.rail
	if r.failed {
		if alt := e.aliveRail(r); alt != nil {
			r = alt
		}
	}
	e.linkResend(g, fr, r)
}

// releaseLink recycles an acked frame record no pending event refers to.
func (e *Engine) releaseLink(fr *linkFrame) {
	if !fr.acked || fr.sending > 0 || fr.checks > 0 || e.opts.NoRecycle {
		return
	}
	*fr = linkFrame{eng: e, armFn: fr.armFn, expireFn: fr.expireFn}
	e.freeLinks.put(fr)
}

// linkResend re-injects a retained frame, bypassing the window: the
// wrappers inside were already elected and accounted once. The frame was
// contiguous on the host ever since its first transmission, so every
// retransmission is a one-segment transaction.
func (e *Engine) linkResend(g *Gate, fr *linkFrame, r *rail) {
	fr.attempts++
	fr.sending++
	fr.stale = fr.checks
	fr.rail = r
	size := len(fr.frame.Bytes())
	e.stats.Retransmits++
	e.stats.WireBytes += int64(size)
	if e.opts.Tracer != nil { // the note is built for a tracer only
		e.traceEvent(trace.Retransmit, g.peer, r.idx, 0, size, fr.attempts, fmt.Sprintf("frame %d", fr.seq))
	}
	fr.frame.Retain() // the NIC's reference; the link layer keeps its own
	err := r.drv.SendFrame(g.peer, simnet.TxEager, fr.frame, 1, 0, fr.armFn)
	if err != nil {
		panic("core: link retransmit failed: " + err.Error())
	}
}

// linkOnDelivery intercepts eager trains on a reliable engine. It
// reports true when the delivery was fully handled here (pure link
// control, or a duplicate frame); a frame train's entries are dispatched
// before returning. Trains without a leading link entry fall through to
// the normal path untouched.
func (e *Engine) linkOnDelivery(r *rail, d simnet.Delivery) bool {
	h, err := decodeHeader(d.Data)
	if err != nil || h.kind != kindLink {
		return false
	}
	g := e.Gate(d.Src)
	switch h.aux {
	case linkFrameTag:
		e.linkAckIn(g, h.length, false)
		e.linkAccept(g, r, h, d.Data[headerSize:], d.Frame)
	case linkAckTag:
		e.linkAckIn(g, h.length, true)
	case linkPingTag:
		// Answer on the probed rail itself: a pong proves it works again.
		e.linkCtl(g, r, linkPongTag, uint32(h.seq), g.lrx.floor)
	case linkPongTag:
		e.railRecover(r)
	default:
		e.protoErr(g, fmt.Sprintf("unknown link subkind %d", h.aux))
	}
	return true
}

// linkAccept deduplicates one reliable frame and dispatches its train,
// a slice of fr.
func (e *Engine) linkAccept(g *Gate, r *rail, h header, train []byte, fr *simnet.Frame) {
	if g.lrx.seen == nil {
		g.lrx.seen = make(map[uint32]bool)
	}
	seq := uint32(h.seq)
	if seq < g.lrx.floor || g.lrx.seen[seq] {
		// Already delivered: the ack was lost or slow. Re-ack promptly so
		// the sender stops re-sending.
		e.linkScheduleAck(g)
		return
	}
	if seq != g.lrx.floor {
		// Accepted ahead of the gap: the per-flow resequencing above
		// restores application order, so there is no head-of-line wait.
		e.stats.ReorderedAccepts++
	}
	g.lrx.seen[seq] = true
	for g.lrx.seen[g.lrx.floor] {
		delete(g.lrx.seen, g.lrx.floor)
		g.lrx.floor++
	}
	e.linkScheduleAck(g)
	err := walkEntries(train, func(h header, payload []byte) error {
		e.dispatch(g.peer, h, payload, fr)
		return nil
	})
	if err != nil {
		e.protoErr(g, fmt.Sprintf("corrupt packet train on rail %d: %v", r.idx, err))
	}
}

// linkAckIn advances the sender-side ack floor, retiring the retained
// frames below it and dropping the link layer's reference to each.
func (e *Engine) linkAckIn(g *Gate, floor uint32, explicit bool) {
	if explicit && floor <= g.ltx.acked {
		e.stats.DupAcks++
	}
	if floor > g.ltx.acked {
		g.ltx.acked = floor
	}
	un := g.ltx.unacked
	n := 0
	for n < len(un) && un[n].seq < floor {
		un[n].acked = true
		un[n].frame.Release()
		e.releaseLink(un[n])
		n++
	}
	if n == 0 {
		return
	}
	// Close the gap in place so the backing array serves the gate for
	// good; the window of unacked frames is short.
	rest := copy(un, un[n:])
	clear(un[rest:])
	g.ltx.unacked = un[:rest]
}

// linkScheduleAck arranges a delayed pure ack, coalescing bursts: one
// floor update covers every frame that arrived within the window, and an
// outbound frame in the meantime cancels it (the floor piggybacks).
func (e *Engine) linkScheduleAck(g *Gate) {
	if g.lrx.ackPending {
		return
	}
	g.lrx.ackPending = true
	g.lrx.acks++
	if g.lrx.ackFn == nil {
		g.lrx.ackFn = g.linkAckDue
	}
	e.world.After(linkAckDelay, g.lrx.ackFn)
}

// linkAckDue is the delayed ack's event. Every one waits linkAckDelay, so
// they fire in the order they were scheduled, and one that fires while a
// later one is pending is stale: an outbound frame carried the floor
// since and the gate scheduled again. The latest sends the ack unless an
// outbound frame has carried the floor after it was scheduled.
func (g *Gate) linkAckDue() {
	if g.lrx.acks--; g.lrx.acks > 0 || !g.lrx.ackPending {
		return
	}
	g.lrx.ackPending = false
	e := g.eng
	r := e.aliveRail(nil)
	if r == nil {
		r = e.rails[0]
	}
	e.linkCtl(g, r, linkAckTag, 0, g.lrx.floor)
}

// linkCtl injects one pure link control entry directly through a driver,
// below the optimization window. Pure control is unreliable by design.
// The entry is encoded on the stack: the frame copies it.
func (e *Engine) linkCtl(g *Gate, r *rail, sub uint32, seq uint32, floor uint32) {
	var buf [headerSize]byte
	hdr := [][]byte{appendLinkHeader(buf[:0], sub, seq, floor)}
	e.stats.WireBytes += headerSize
	if err := r.drv.SendFrame(g.peer, simnet.TxEager, e.frames.New(hdr), 1, 0, nil); err != nil {
		panic("core: link control send failed: " + err.Error())
	}
}

// aliveRail returns the first rail not marked failed other than except
// (nil excepts none), or nil.
func (e *Engine) aliveRail(except *rail) *rail {
	for _, r := range e.rails {
		if r != except && !r.failed {
			return r
		}
	}
	return nil
}

// railFail declares a rail dead: a frame exhausted its retransmit budget
// on it and a surviving rail exists. Pinned window wrappers re-home to
// the common list, as do those of a packet pre-staged for the rail,
// retained frames re-issue elsewhere, elections skip the rail, and a
// probe starts riding it until the peer answers.
func (e *Engine) railFail(r *rail, peer simnet.NodeID) {
	if r.failed {
		return
	}
	r.failed = true
	e.stats.FailedRails++
	e.traceEvent(trace.RailEvent, peer, r.idx, 0, 0, 0, "failed")
	e.unstage(r)
	alt := e.aliveRail(r)
	for _, g := range e.gateOrder {
		for _, pw := range g.win.perDriver[r.idx] {
			pw.driver = anyDriver
			g.win.common = append(g.win.common, pw)
		}
		g.win.perDriver[r.idx] = g.win.perDriver[r.idx][:0]
		if alt == nil {
			continue
		}
		// Re-issue the rail's in-flight frames on the survivor, in seq
		// order, budget reset.
		for _, fr := range g.ltx.unacked {
			if fr.rail == r {
				fr.attempts = 0
				e.linkResend(g, fr, alt)
			}
		}
	}
	e.probeRail(r, peer)
	e.pumpAll()
}

// probeRail pings a failed rail until it answers (see railRecover) or,
// with Options.ProbeBudget set, until the budget of unanswered pings is
// spent — at which point the rail is abandoned: probing stops, the rail
// stays failed, and the run can terminate without a RunUntil horizon. A
// recovery (railRecover) resets the count, so the budget is per failure
// episode, not per rail lifetime.
func (e *Engine) probeRail(r *rail, peer simnet.NodeID) {
	if r.probing {
		return
	}
	r.probing = true
	sent := 0
	var tick func()
	tick = func() {
		if !r.failed {
			r.probing = false
			return
		}
		if e.opts.ProbeBudget > 0 && sent >= e.opts.ProbeBudget {
			r.probing = false
			e.stats.AbandonedRails++
			e.traceEvent(trace.RailEvent, peer, r.idx, 0, 0, sent, "abandoned")
			return
		}
		sent++
		e.linkCtl(e.Gate(peer), r, linkPingTag, 0, 0)
		e.world.After(e.probeInterval(), tick)
	}
	tick()
}

// railRecover puts a rail back in service when its probe is answered.
func (e *Engine) railRecover(r *rail) {
	if !r.failed {
		return
	}
	r.failed = false
	e.stats.RecoveredRails++
	e.traceEvent(trace.RailEvent, -1, r.idx, 0, 0, 0, "recovered")
	e.pumpAll()
}
