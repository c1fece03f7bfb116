package core

import (
	"errors"
	"fmt"

	"nmad/internal/simnet"
	"nmad/internal/trace"
)

// Receive path: physical packets arrive from the transfer layer, are
// split back into wrappers, resequenced per flow (the optimizer may have
// sent them out of order or over different rails), and matched against
// posted receives — or parked on the unexpected queue.
//
// Protocol anomalies on this path — corrupt trains, duplicate wrappers,
// unknown rendezvous or ack ids — are counted per gate and dropped
// rather than crashing the node: one misbehaving or corrupted peer must
// never take the whole engine down (see Engine.protoErr).

// ErrProtocol reports a receive-path protocol anomaly surfaced through a
// request (for example a duplicate rendezvous id consuming a posted
// receive). Anomaly counts are in Stats.ProtocolErrors and per gate in
// Gate.ProtocolErrors.
var ErrProtocol = errors.New("core: protocol anomaly")

// rxFlow is the resequencing state of one (gate, tag) flow. The held map
// is made lazily at the first out-of-order arrival: an in-order flow —
// the overwhelmingly common case — never allocates it.
type rxFlow struct {
	next seqNum
	held map[seqNum]*inEntry
}

// inEntry is one arrived wrapper awaiting resequencing or matching. Its
// payload is a slice of the wire frame it arrived in, which the entry
// keeps alive with a reference of its own.
type inEntry struct {
	h       header
	payload []byte
	frame   *simnet.Frame
}

// protoErr counts one receive-path protocol anomaly against a gate
// instead of panicking: the engine stays up, the event is visible in
// Stats.ProtocolErrors, Gate.ProtocolErrors and the trace.
func (e *Engine) protoErr(g *Gate, note string) {
	g.protoErrs++
	e.stats.ProtocolErrors++
	e.traceEvent(trace.ProtoError, g.peer, -1, 0, 0, 0, note)
}

// onDelivery is the engine's receive entry point, bound to every driver
// at Attach time.
func (e *Engine) onDelivery(r *rail, d simnet.Delivery) {
	e.traceEvent(trace.Arrive, d.Src, r.idx, 0, d.Len, 0, d.Kind.String())
	if d.Kind == simnet.TxRdma {
		// The NIC placed the bytes already (landings.Place).
		id, off := splitBodyAux(d.Aux)
		e.onBody(d.Src, id, off, d.Len, nil)
		return
	}
	if e.opts.Reliability && e.linkOnDelivery(r, d) {
		return
	}
	err := walkEntries(d.Data, func(h header, payload []byte) error {
		e.dispatch(d.Src, h, payload, d.Frame)
		return nil
	})
	if err != nil {
		// Entries decoded before the corruption were dispatched; the
		// malformed tail is dropped and counted.
		e.protoErr(e.Gate(d.Src), fmt.Sprintf("corrupt packet train on rail %d: %v", r.idx, err))
	}
}

// dispatch routes one wrapper by kind, applying flow resequencing to
// ordered kinds. payload is a slice of fr, valid until the delivery
// handler returns: whoever parks it retains fr (newInEntry does).
func (e *Engine) dispatch(src simnet.NodeID, h header, payload []byte, fr *simnet.Frame) {
	g := e.Gate(src)
	switch h.kind {
	case kindCTS:
		e.onCTS(g, h)
	case kindChunk:
		e.onBody(src, h.aux, int(uint32(h.seq)), len(payload), payload)
	case kindAck:
		e.onAck(g, h.aux)
	case kindCredit:
		e.onCredit(g, int(h.length))
	case kindDone:
		e.onRdvDone(g, h.aux)
	case kindData, kindRTS:
		if h.flags&flagUnordered != 0 {
			e.deliver(g, h, payload, fr)
			return
		}
		f := g.flows.at(h.tag)
		switch {
		case h.seq == f.next:
			e.deliver(g, h, payload, fr)
			f.next++
			for {
				ent, ok := f.held[f.next]
				if !ok {
					break
				}
				delete(f.held, f.next)
				// The held entry brings its own frame, not fr; deliver
				// copied the payload or re-parked it under a new reference.
				e.deliver(g, ent.h, ent.payload, ent.frame)
				e.freeInEntry(ent)
				f.next++
			}
		case h.seq > f.next:
			if _, dup := f.held[h.seq]; dup {
				// Keep the first copy; the duplicate's credit must not
				// leak (only one copy will ever be consumed).
				e.protoErr(g, fmt.Sprintf("duplicate held wrapper (tag %#x, seq %d)", h.tag, h.seq))
				if h.kind == kindData {
					e.returnCredit(g)
				}
				return
			}
			if f.held == nil {
				f.held = make(map[seqNum]*inEntry)
			}
			f.held[h.seq] = e.newInEntry(h, payload, fr)
			e.stats.Reordered++
			if len(f.held) > e.stats.PeakHeld {
				e.stats.PeakHeld = len(f.held)
			}
		default:
			e.protoErr(g, fmt.Sprintf("duplicate wrapper (tag %#x, seq %d)", h.tag, h.seq))
			if h.kind == kindData {
				// The sender spent a landing credit on this wrapper and
				// it will never be consumed; dropping it must not leak
				// the credit into a shrinking budget.
				e.returnCredit(g)
			}
		}
	default:
		e.protoErr(g, "dispatch of unknown kind "+h.kind.String())
	}
}

// deliver matches one in-order wrapper against the posted receives, or
// parks it on the unexpected queue.
func (e *Engine) deliver(g *Gate, h header, payload []byte, fr *simnet.Frame) {
	for i, r := range g.posted {
		if r.matchesTag(h.tag) {
			g.posted = append(g.posted[:i], g.posted[i+1:]...)
			e.consume(g, r, h, payload)
			return
		}
	}
	g.unexpected = append(g.unexpected, e.newInEntry(h, payload, fr))
	e.stats.Unexpected++
	if len(g.unexpected) > e.stats.PeakUnexpected {
		e.stats.PeakUnexpected = len(g.unexpected)
	}
	e.traceEvent(trace.Unexpected, g.peer, -1, h.tag, len(payload), 0, h.kind.String())
	for i, p := range g.probers {
		p.Unpark()
		g.probers[i] = nil
	}
	g.probers = g.probers[:0]
}

// matchUnexpected looks for an already-arrived wrapper satisfying a newly
// posted receive (FIFO over arrival order).
func (g *Gate) matchUnexpected(r *RecvRequest) bool {
	for i, ent := range g.unexpected {
		if r.matchesTag(ent.h.tag) {
			g.unexpected = append(g.unexpected[:i], g.unexpected[i+1:]...)
			g.eng.consume(g, r, ent.h, ent.payload)
			// consume copies the payload synchronously (only the request
			// completion is deferred), so the entry is dead here.
			g.eng.freeInEntry(ent)
			return true
		}
	}
	return false
}

// consume finishes the match: eager payloads are copied into the user
// buffer (the memcpy is charged to the host), rendezvous requests are
// granted. Consuming an eager data wrapper frees its landing credit.
func (e *Engine) consume(g *Gate, r *RecvRequest, h header, payload []byte) {
	r.tag = h.tag
	r.src = g.peer
	e.traceEvent(trace.Deliver, g.peer, -1, h.tag, len(payload), 0, h.kind.String())
	switch h.kind {
	case kindData:
		// Scatter the payload across the receive iovec (one segment for a
		// plain Irecv); whatever exceeds the landing area is dropped.
		n := r.iov.copyAt(0, payload)
		r.n = n
		var err error
		if len(payload) > r.iov.total() {
			err = ErrTruncated
		}
		if h.flags&flagNeedAck != 0 {
			// Synchronous send: tell the sender the match happened. The
			// ack rides the window like any wrapper and may aggregate
			// with outbound data.
			g.pushCtrl(kindAck, h.tag, 0, h.aux)
		}
		e.returnCredit(g)
		e.completeAfter(e.node.CopyCost(n), r, err)
	case kindRTS:
		e.acceptRdv(g, r, h)
	default:
		e.protoErr(g, "consume of non-matchable kind "+h.kind.String())
		r.complete(fmt.Errorf("%w: matched a %s entry", ErrProtocol, h.kind))
	}
}

// returnCredit tallies one consumed eager wrapper and, once a batch has
// accumulated, replenishes the sender with a credit control entry. The
// entry rides the window like the rendezvous handshake: it aggregates
// with outbound data when there is any and travels alone otherwise.
func (e *Engine) returnCredit(g *Gate) {
	if e.opts.Credits == 0 {
		return
	}
	g.creditOwed++
	if e.creditFreeze || g.creditOwed < creditBatch(e.opts.Credits) {
		return
	}
	n := g.creditOwed
	g.creditOwed = 0
	e.stats.CreditsSent++
	g.pushCtrl(kindCredit, 0, uint32(n), 0)
}

// FreezeCredits suspends (on = true) or resumes credit replenishment on
// this node. While frozen, consumed eager wrappers are tallied but no
// credit entries go out, so every peer's sending budget toward this node
// runs dry and its excess backlog waits in its own collect layer — a
// controlled receiver-side squeeze. Resuming flushes everything owed at
// once. Only meaningful with Options.Credits set; the scenario harness
// drives this for its credit-squeeze events.
func (e *Engine) FreezeCredits(on bool) {
	e.creditFreeze = on
	if on || e.opts.Credits == 0 {
		return
	}
	for _, g := range e.gateOrder {
		if g.creditOwed == 0 {
			continue
		}
		n := g.creditOwed
		g.creditOwed = 0
		e.stats.CreditsSent++
		g.pushCtrl(kindCredit, 0, uint32(n), 0)
	}
}

// creditBatch is how many consumed wrappers accumulate before a
// replenishment entry goes out: batching amortizes the control traffic
// while staying small enough (at most a quarter of the budget) that the
// sender never starves waiting for it.
func creditBatch(budget int) int {
	b := budget / 4
	if b < 1 {
		b = 1
	}
	return b
}

// onCredit replenishes the sender-side budget and offers the newly
// eligible backlog to the rails.
func (e *Engine) onCredit(g *Gate, n int) {
	if e.opts.Credits == 0 {
		e.protoErr(g, "credit entry with flow control disabled")
		return
	}
	g.credits += n
	e.kick(g)
}

// onAck retires the synchronous-completion unit of a send.
func (e *Engine) onAck(g *Gate, id uint32) {
	req, ok := e.syncAcks[id]
	if !ok {
		e.protoErr(g, fmt.Sprintf("ack for unknown synchronous send %d", id))
		return
	}
	delete(e.syncAcks, id)
	req.doneOne()
}
