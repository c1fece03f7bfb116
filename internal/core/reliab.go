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
// A frame has one retransmit clock, the check armed when its last copy in
// flight leaves the NIC (arm). A timer cannot be cancelled, so a check is
// an entry of the engine's timer queue stamped with the frame's
// generation, which every retransmission and every recycling of the
// record advance: a check whose stamp no longer matches is void. railFail
// resets attempts, never gen. Records are recycled (Engine.freeLinks) as
// soon as they are acked with no transmission in flight (see releaseLink).
type linkFrame struct {
	eng      *Engine
	gate     *Gate
	seq      uint32
	gen      uint32        // stamp of the frame's live check
	frame    *simnet.Frame // link header + encoded train
	rail     *rail         // rail of the last (re)transmission
	attempts int           // transmissions so far
	sending  int           // transmissions the NIC is not done with
	acked    bool          // retired by a cumulative ack
	// armFn is arm, bound when the record is first made: the NIC
	// completion of a retransmission.
	armFn func()

	listLink[linkFrame] // Engine.freeLinks
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
	floor uint32
	seen  map[uint32]bool
	// ackPending is set while a delayed ack is due; ackGen stamps the
	// latest one armed, the only one that may send (linkAckDue).
	ackPending bool
	ackGen     uint32
}

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
		fr.eng, fr.armFn = e, fr.arm
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
// retransmit spuriously. While another copy of the frame is in flight
// the check is void, still one event (a nil frame): the clock starts when
// the last copy leaves the NIC.
func (fr *linkFrame) arm() {
	e := fr.eng
	fr.sending--
	check := fr
	if fr.sending > 0 {
		check = nil
	}
	e.after(e.opts.RetransmitTimeout, check, fr.gen)
	e.releaseLink(fr)
}

// linkExpire fires when a check's timeout has elapsed. The check is void
// unless its frame is still at the generation gen it was armed at.
func (e *Engine) linkExpire(fr *linkFrame, gen uint32) {
	if fr == nil || fr.gen != gen {
		return
	}
	g := fr.gate
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

// releaseLink recycles an acked frame record with no transmission in
// flight. The new generation voids the frame's pending check, if any.
func (e *Engine) releaseLink(fr *linkFrame) {
	if !fr.acked || fr.sending > 0 {
		return
	}
	*fr = linkFrame{eng: e, gen: fr.gen + 1, armFn: fr.armFn}
	e.freeLinks.put(fr)
}

// linkResend re-injects a retained frame, bypassing the window: the
// wrappers inside were already elected and accounted once. The frame was
// contiguous on the host ever since its first transmission, so every
// retransmission is a one-segment transaction.
func (e *Engine) linkResend(g *Gate, fr *linkFrame, r *rail) {
	fr.attempts++
	fr.sending++
	fr.gen++ // voids the pending check
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
	g.lrx.ackGen++
	e.after(linkAckDelay, g, g.lrx.ackGen)
}

// linkAckDue is the delayed ack armed at generation gen. One armed before
// the gate's latest is stale: an outbound frame carried the floor since
// and the gate scheduled again. The latest sends the ack unless an
// outbound frame has carried the floor after it was scheduled.
func (g *Gate) linkAckDue(gen uint32) {
	if gen != g.lrx.ackGen || !g.lrx.ackPending {
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
	if !r.probing {
		r.probing, r.probePeer = true, peer
		e.probe(r, 0)
	}
	e.pumpAll()
}

// probe is one tick of a failed rail's probe, sent pings into its
// episode. It pings the rail every 4 retransmit timeouts until it answers
// (see railRecover) or, with Options.ProbeBudget set, until the budget of
// unanswered pings is spent — at which point the rail is abandoned:
// probing stops, the rail stays failed, and the run can terminate without
// a RunUntil horizon. An episode starts at railFail, so the budget is per
// failure episode, not per rail lifetime.
func (e *Engine) probe(r *rail, sent uint32) {
	if !r.failed {
		r.probing = false
		return
	}
	if e.opts.ProbeBudget > 0 && int(sent) >= e.opts.ProbeBudget {
		r.probing = false
		e.stats.AbandonedRails++
		e.traceEvent(trace.RailEvent, r.probePeer, r.idx, 0, 0, int(sent), "abandoned")
		return
	}
	e.linkCtl(e.Gate(r.probePeer), r, linkPingTag, 0, 0)
	e.after(4*e.opts.RetransmitTimeout, r, sent+1)
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
