package core

import (
	"fmt"

	"nmad/internal/simnet"
	"nmad/internal/trace"
)

// The rendezvous protocol. A data wrapper whose payload reaches the
// driver's threshold is converted, in place in the window, into an RTS
// control entry (header-only: 24 bytes). The RTS is aggregable like any
// wrapper — this is how the §5.3 datatype strategy ships the rendezvous
// requests of the large blocks together with the small blocks in one
// physical packet. When the receiver has a matching posted receive it
// answers with a CTS, and the sender streams the body: zero-copy RDMA on
// capable rails, eager chunk entries into the registered landing buffer
// otherwise, possibly split across several rails by the strategy.
//
// The grant is bounded twice: its size is clamped to the posted landing
// capacity (the sender streams only what the receiver can place; the
// receive completes with ErrTruncated without the excess ever crossing
// the wire), and Options.MaxGrants caps how many granted transactions
// may be in flight at once — further matched RTSes wait in FIFO order
// with their CTS deferred until an active transaction retires.

// rdvSend is the sender-side state of one rendezvous transaction. The
// body is an iovec: a vector send streams straight out of its scattered
// user-space segments.
type rdvSend struct {
	id   uint32
	gate *Gate
	tag  Tag
	seq  seqNum
	body iovec
	req  *SendRequest
	left int // chunks not yet fully sent

	// Reliability bookkeeping (Options.Reliability): started marks the
	// first CTS consumed (a later CTS is a reissue request), done marks
	// the first full stream-out (RdvCompleted counted once). Under
	// reliability the state is retired by the receiver's kindDone entry,
	// not by left reaching 0 — RDMA body fragments can be lost below the
	// link layer and the receiver may ask for the span again.
	started bool
	done    bool

	// kept holds, under Options.Reliability, a reference to the wire
	// frame of every RDMA chunk of the original stream until the
	// receiver's kindDone retires the transaction: once the request has
	// completed the caller may overwrite its buffer, so a reissue from
	// then on reads the body out of these frames (see stable).
	kept []keptChunk
}

// keptChunk is one retained body frame: the bytes from offset off on.
type keptChunk struct {
	off int
	fr  *simnet.Frame
}

// stable returns the body span [off, off+n) as a gather list over the
// retained frames instead of the caller's memory. A stretch no frame
// holds — it travelled as eager chunks, under the link layer's
// protection, and a re-plan moved it to an RDMA rail — still comes from
// the caller's iovec.
func (rs *rdvSend) stable(off, n int) iovec {
	var segs iovec
	for n > 0 {
		var piece []byte
		gap := n // distance to the next retained frame
		for _, k := range rs.kept {
			b := k.fr.Bytes()
			if k.off <= off && off < k.off+len(b) {
				piece = b[off-k.off:]
				break
			}
			if k.off > off {
				gap = min(gap, k.off-off)
			}
		}
		if piece == nil {
			segs = rs.body.slice(off, gap).appendSegs(segs)
			off, n = off+gap, n-gap
			continue
		}
		piece = piece[:min(len(piece), n)]
		segs = append(segs, piece)
		off, n = off+len(piece), n-len(piece)
	}
	return segs
}

// rdvKey identifies a receiver-side transaction: rendezvous ids are
// sender-local, so the peer disambiguates.
type rdvKey struct {
	src simnet.NodeID
	id  uint32
}

// rdvRecv is the receiver-side state of one rendezvous transaction.
type rdvRecv struct {
	req       *RecvRequest
	remaining int // granted bytes not yet landed
	granted   int // bytes the CTS allowed (clamped to the landing area)
	total     int // full body size the RTS announced

	// spans tracks which byte ranges have landed (Options.Reliability):
	// re-streamed fragments overlapping an already-covered range count
	// nothing, so duplicated body traffic can never double-credit
	// remaining.
	spans []span
}

// span is one covered byte range [lo, hi) of a rendezvous body.
type span struct{ lo, hi int }

// cover merges [lo, hi) into the covered set and returns how many bytes
// were newly covered. Bodies arrive as a handful of large fragments, so
// a sorted slice with insertion-merge is plenty.
func (rr *rdvRecv) cover(lo, hi int) int {
	if hi > rr.granted {
		hi = rr.granted // beyond the grant never counts
	}
	if lo < 0 {
		lo = 0
	}
	if lo >= hi {
		return 0
	}
	newly := hi - lo
	nlo, nhi := lo, hi
	i := 0
	for i < len(rr.spans) && rr.spans[i].hi < lo {
		i++
	}
	j := i
	for j < len(rr.spans) && rr.spans[j].lo <= hi {
		s := rr.spans[j]
		if olo, ohi := max(s.lo, lo), min(s.hi, hi); ohi > olo {
			newly -= ohi - olo
		}
		if s.lo < nlo {
			nlo = s.lo
		}
		if s.hi > nhi {
			nhi = s.hi
		}
		j++
	}
	out := make([]span, 0, len(rr.spans)-(j-i)+1)
	out = append(out, rr.spans[:i]...)
	out = append(out, span{nlo, nhi})
	out = append(out, rr.spans[j:]...)
	rr.spans = out
	return newly
}

// pendingGrant is a matched rendezvous request waiting for a grant slot
// (Options.MaxGrants).
type pendingGrant struct {
	g *Gate
	r *RecvRequest
	h header
}

// defaultBodyChunkNonRDMA bounds eager body chunks when the driver
// reports no usable threshold.
const defaultBodyChunkNonRDMA = 64 << 10

// defaultBodyChunkReliable bounds body transactions when the link-layer
// reliability protocol is on and no explicit BodyChunk was configured:
// acks share the directed wire with body chunks, so one transaction must
// stay well under the retransmit timeout's worth of wire time (64KB at
// 10Gb/s ≈ 52µs against the 200µs default timeout).
const defaultBodyChunkReliable = 64 << 10

// convertToRTS swaps a data wrapper for a rendezvous request in place.
func (e *Engine) convertToRTS(pw *packet) *packet {
	if pw.flags&flagNeedAck != 0 {
		// The rendezvous handshake already implies a receiver-side match,
		// so the explicit ack is redundant: release its completion unit.
		if req, ok := e.syncAcks[pw.aux]; ok {
			delete(e.syncAcks, pw.aux)
			req.doneOne()
		}
		pw.flags &^= flagNeedAck
		pw.aux = 0
	}
	e.nextRdvID++
	id := e.nextRdvID
	size := pw.payloadLen()
	g := pw.gate
	rts := e.newPacket(g, header{
		kind: kindRTS, flags: pw.flags, tag: pw.tag, seq: pw.seq, length: uint32(size), aux: id,
	}, pw.driver, nil, pw.req)
	e.rdvSend[id] = &rdvSend{
		id:   id,
		gate: g,
		tag:  pw.tag,
		seq:  pw.seq,
		body: pw.iov,
		req:  pw.req,
	}
	if !g.win.replace(pw, rts) {
		panic("core: rendezvous conversion of a wrapper not in the window")
	}
	if e.opts.Credits > 0 {
		g.dropData(pw) // rendezvous traffic is credit-exempt
	}
	e.stats.RdvStarted++
	e.traceEvent(trace.RdvStart, g.peer, -1, pw.tag, size, 0, "")
	// The data wrapper is fully replaced: the rendezvous state owns its
	// iovec now (nil it so recycling cannot reuse the backing array under
	// the body), and nothing else references the wrapper.
	pw.iov = nil
	e.freePacket(pw)
	return rts
}

// acceptRdv runs when an RTS matches a posted receive: grant it, or park
// it behind the MaxGrants cap.
func (e *Engine) acceptRdv(g *Gate, r *RecvRequest, h header) {
	key := rdvKey{src: g.peer, id: h.aux}
	_, dup := e.rdvRecv[key]
	if !dup {
		// The id may also be waiting for a grant slot: granting it twice
		// later would overwrite the live transaction.
		for _, pg := range e.rdvWait {
			if pg.g.peer == key.src && pg.h.aux == key.id {
				dup = true
				break
			}
		}
	}
	if dup {
		e.protoErr(g, fmt.Sprintf("duplicate rendezvous %v", key))
		r.complete(fmt.Errorf("%w: duplicate rendezvous id %d from node %d", ErrProtocol, h.aux, g.peer))
		return
	}
	if e.opts.MaxGrants > 0 && len(e.rdvRecv) >= e.opts.MaxGrants {
		e.rdvWait = append(e.rdvWait, pendingGrant{g: g, r: r, h: h})
		e.stats.RdvDeferred++
		return
	}
	e.grantRdv(g, r, h)
}

// grantRdv sends the CTS for a matched rendezvous request, clamped to
// the posted landing capacity: the sender streams only what the receiver
// can place, and a short landing area completes with ErrTruncated
// without the excess ever leaving the sender.
func (e *Engine) grantRdv(g *Gate, r *RecvRequest, h header) {
	grant := int(h.length)
	if room := r.iov.total(); grant > room {
		grant = room
		e.stats.RdvTruncated++
	}
	e.traceEvent(trace.RdvGrant, g.peer, -1, h.tag, grant, 0, "")
	if grant == 0 {
		// Nothing can land. The zero-byte CTS still goes out so the
		// sender retires its transaction state.
		g.pushCtrl(kindCTS, h.tag, 0, h.aux)
		r.n = 0
		var err error
		if h.length > 0 {
			err = ErrTruncated
		}
		r.complete(err)
		return
	}
	key := rdvKey{src: g.peer, id: h.aux}
	e.rdvRecv[key] = &rdvRecv{req: r, remaining: grant, granted: grant, total: int(h.length)}
	g.pushCtrl(kindCTS, h.tag, uint32(grant), h.aux)
	if e.opts.Reliability {
		e.armBodyWatch(g, key, h.tag)
	}
}

// armBodyWatch schedules the rendezvous body progress check: if a
// watched transaction makes no progress over one body-timeout window —
// RDMA fragments travel below the link layer and can be lost outright —
// the receiver re-pushes the CTS and the sender re-streams the span
// (span tracking keeps duplicates harmless).
func (e *Engine) armBodyWatch(g *Gate, key rdvKey, tag Tag) {
	rr, ok := e.rdvRecv[key]
	if !ok {
		return
	}
	last := rr.remaining
	e.world.After(e.bodyTimeout(), func() {
		rr, ok := e.rdvRecv[key]
		if !ok {
			return // landed (or retired); the watchdog dies with it
		}
		if rr.remaining >= last {
			g.pushCtrl(kindCTS, tag, uint32(rr.granted), key.id)
		}
		e.armBodyWatch(g, key, tag)
	})
}

// releaseGrants hands freed grant slots to deferred rendezvous requests
// in arrival order.
func (e *Engine) releaseGrants() {
	for len(e.rdvWait) > 0 && (e.opts.MaxGrants == 0 || len(e.rdvRecv) < e.opts.MaxGrants) {
		pg := e.rdvWait[0]
		e.rdvWait[0] = pendingGrant{}
		e.rdvWait = e.rdvWait[1:]
		e.grantRdv(pg.g, pg.r, pg.h)
	}
}

// onCTS runs on the original sender when the grant arrives: plan the
// granted span over the rails and stream it.
func (e *Engine) onCTS(g *Gate, h header) {
	rs, ok := e.rdvSend[h.aux]
	if !ok {
		e.protoErr(g, fmt.Sprintf("CTS for unknown rendezvous %d", h.aux))
		return
	}
	if rs.started {
		// A second CTS for a live transaction is the receiver's body
		// watchdog asking for the span again (fragments were lost below
		// the link layer). Re-stream the whole grant outside the request
		// accounting; the receiver's span tracking discards what already
		// landed.
		e.stats.BodyReissues++
		if e.opts.Tracer != nil { // the note is built for a tracer only
			e.traceEvent(trace.Retransmit, g.peer, -1, rs.tag, int(h.length), 0, fmt.Sprintf("rdv %d reissue", rs.id))
		}
		e.streamBody(rs, int(h.length), true)
		return
	}
	rs.started = true
	e.streamBody(rs, int(h.length), false)
}

// streamBody distributes the granted bytes per the strategy's plan and
// arranges completion accounting. granted may be smaller than the body
// (the receiver clamped the CTS to its landing area); the excess never
// leaves the sender. A reissued span repeats the wire traffic of the
// original stream but touches neither the send request nor the chunk
// countdown — those completed the first time around.
func (e *Engine) streamBody(rs *rdvSend, granted int, reissue bool) {
	size := rs.body.total()
	if granted < size {
		size = granted
	}
	plan := e.planBody(size)

	type chunk struct {
		rail     *rail
		off, len int
		rdma     bool
	}
	var chunks []chunk
	for _, share := range plan {
		if share.Size <= 0 {
			continue
		}
		r := e.rails[share.Rail]
		caps := r.drv.Caps()
		csize := share.Size
		if caps.RDMA {
			if e.opts.BodyChunk > 0 && e.opts.BodyChunk < csize {
				csize = e.opts.BodyChunk
			}
		} else {
			csize = caps.RdvThreshold
			if csize <= 0 {
				csize = defaultBodyChunkNonRDMA
			}
		}
		// One gather slot is reserved for the chunk header on non-RDMA
		// rails; respecting the capacity here keeps vector bodies within
		// the rail's native gather list.
		segCap := caps.MaxSegments - 1
		if segCap <= 0 {
			segCap = 1
		}
		for off := share.Offset; off < share.Offset+share.Size; {
			n := csize
			if rest := share.Offset + share.Size - off; n > rest {
				n = rest
			}
			n = rs.body.capSegs(off, n, segCap)
			chunks = append(chunks, chunk{rail: r, off: off, len: n, rdma: caps.RDMA})
			off += n
		}
	}
	if len(chunks) == 0 {
		if reissue {
			return
		}
		// Zero-length (or zero-granted) body: nothing to stream, retire
		// the wrapper.
		rs.req.doneOne()
		e.stats.RdvCompleted++
		delete(e.rdvSend, rs.id)
		return
	}

	if !reissue {
		rs.req.add(len(chunks))
		rs.left = len(chunks)
	}
	retire := func() {
		if reissue {
			return // the original stream owns the countdown
		}
		rs.left--
		if rs.left != 0 {
			return
		}
		if !rs.done {
			rs.done = true
			e.stats.RdvCompleted++
		}
		if !e.opts.Reliability {
			// Under reliability the state must survive a possible reissue
			// request; the receiver's kindDone entry retires it instead.
			delete(e.rdvSend, rs.id)
		}
	}
	chunkReq := rs.req
	if reissue {
		chunkReq = nil
	}

	// RDMA chunks are chained per rail: chunk i+1 is handed to the NIC
	// only when chunk i completes. Submitting the whole body at once
	// would reserve the directed wire end to end, and anything queued
	// after it — link-layer acks in particular — would wait out the full
	// body; under reliability that starvation shows up as spurious
	// retransmissions. Chained, the wire is never claimed more than one
	// chunk ahead.
	rdmaQueues := make(map[*rail][]chunk)
	var rdmaOrder []*rail
	var sendRdma func(q []chunk)
	sendRdma = func(q []chunk) {
		c := q[0]
		rest := q[1:]
		r := c.rail
		// The gather shape the NIC charges is always that of the caller's
		// iovec; the bytes are too, until the request has completed and
		// the memory is the caller's again.
		data := rs.body.slice(c.off, c.len)
		nsegs := len(data)
		if reissue && rs.done {
			data = rs.stable(c.off, c.len)
		}
		fr := e.frames.New(data)
		if e.opts.Reliability && !reissue {
			fr.Retain()
			rs.kept = append(rs.kept, keptChunk{off: c.off, fr: fr})
		}
		e.stats.BodyBytes += int64(c.len)
		r.bytes += int64(c.len)
		e.stats.WireBytes += int64(c.len)
		aux := uint64(rs.id)<<32 | uint64(uint32(c.off))
		req := chunkReq
		size := c.len
		t0 := e.world.Now()
		err := r.drv.SendFrame(rs.gate.peer, simnet.TxRdma, fr, nsegs, aux, func() {
			r.sampler.observe(size, e.world.Now()-t0)
			e.notifyComplete(r.idx, rs.gate.peer, size, 0, e.world.Now()-t0)
			if req != nil {
				req.doneOne()
			}
			retire()
			if len(rest) > 0 {
				sendRdma(rest)
			}
		})
		if err != nil {
			panic("core: rendezvous body submit failed: " + err.Error())
		}
	}

	for _, c := range chunks {
		if c.rdma {
			if _, ok := rdmaQueues[c.rail]; !ok {
				rdmaOrder = append(rdmaOrder, c.rail)
			}
			rdmaQueues[c.rail] = append(rdmaQueues[c.rail], c)
			continue
		}
		data := rs.body.slice(c.off, c.len)
		e.stats.BodyBytes += int64(c.len)
		// Non-RDMA rail: the chunk flows through the window as an eager
		// entry bound for the registered landing buffer. The chunk offset
		// rides the seq field; feed retires one unit of chunkReq per entry.
		pw := e.newPacket(rs.gate, header{
			kind: kindChunk, flags: flagUnordered, tag: rs.tag, seq: seqNum(uint32(c.off)), length: uint32(c.len), aux: rs.id,
		}, c.rail.idx, data, chunkReq)
		if !reissue {
			pw.onSent = retire
		}
		e.submit(pw)
	}
	for _, r := range rdmaOrder {
		sendRdma(rdmaQueues[r])
	}
	if !reissue {
		// Retire the unit the original Isend registered, now that the
		// chunk units carry the completion.
		rs.req.doneOne()
	}
	e.pumpAll()
}

// onRdvDone retires sender-side rendezvous state, retained body frames
// included, when the receiver reports the whole body landed
// (Options.Reliability; the entry rides a reliable frame, so it arrives
// exactly once).
func (e *Engine) onRdvDone(g *Gate, id uint32) {
	rs, ok := e.rdvSend[id]
	if !ok {
		e.protoErr(g, fmt.Sprintf("rdv-done for unknown rendezvous %d", id))
		return
	}
	if !rs.done {
		rs.done = true
		e.stats.RdvCompleted++
	}
	for _, k := range rs.kept {
		k.fr.Release()
	}
	delete(e.rdvSend, id)
}

// onBody places an arriving body fragment (zero-copy: no host copy is
// charged; RDMA and GM-style rendezvous land directly in the registered
// buffer).
func (e *Engine) onBody(src simnet.NodeID, id uint32, offset int, data []byte) {
	key := rdvKey{src: src, id: id}
	rr, ok := e.rdvRecv[key]
	if !ok {
		e.protoErr(e.Gate(src), fmt.Sprintf("body fragment for unknown rendezvous %v", key))
		return
	}
	r := rr.req
	r.iov.copyAt(offset, data)
	if e.opts.Reliability {
		// Only newly covered bytes count: a re-streamed span overlaps
		// what already landed and must not double-credit remaining.
		rr.remaining -= rr.cover(offset, offset+len(data))
	} else {
		rr.remaining -= len(data)
	}
	if rr.remaining < 0 {
		e.protoErr(e.Gate(src), fmt.Sprintf("rendezvous %v over-delivered", key))
		rr.remaining = 0
	}
	e.traceEvent(trace.RdvBody, src, -1, r.tag, len(data), 0, "")
	if rr.remaining == 0 {
		delete(e.rdvRecv, key)
		if e.opts.Reliability {
			// Tell the sender it may retire its state (it keeps the body
			// around for reissue requests until this arrives).
			e.Gate(src).pushCtrl(kindDone, r.tag, 0, id)
		}
		var err error
		r.n = rr.granted
		if rr.total > rr.granted {
			err = ErrTruncated
		}
		r.complete(err)
		e.releaseGrants()
	}
}
