package core

import (
	"fmt"

	"nmad/internal/drivers"
	"nmad/internal/sim"
	"nmad/internal/simnet"
	"nmad/internal/trace"
	"nmad/sched"
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
// user-space segments. Records are recycled (Engine.freeRdvSends); see
// releaseRdvSend for when one may return.
type rdvSend struct {
	eng  *Engine
	id   uint32
	gate *Gate
	tag  Tag
	body iovec
	req  *SendRequest
	left int // chunks of the original stream not yet fully sent

	// plan holds the body plans of the streams whose chains are still
	// running, each taken from the strategy before anything is submitted
	// (a built-in's plan is its own storage, valid only until its next
	// PlanBody). A stream's chains read their shares by index, so a
	// reissue appends its plan and the slice is reset only when no chain
	// is left.
	plan []sched.BodyShare

	// done marks the first full stream-out (RdvCompleted counted once).
	// Under Options.Reliability the state is retired by the receiver's
	// kindDone entry, not by left reaching 0 — RDMA body fragments can be
	// lost below the link layer and the receiver may ask for the span
	// again: a CTS that finds the stream started (left > 0) or done is
	// such a request. The send request stays pending until then too, so
	// a reissue reads the caller's memory like the original stream.
	done bool

	// live marks the transaction as in Engine.rdvSend (not yet retired);
	// chains counts its RDMA chains still streaming, reissues included.
	live   bool
	chains int

	listLink[rdvSend] // Engine.freeRdvSends
}

// retire counts one chunk of the original stream fully sent — an RDMA
// chain's, or an eager chunk's from its train's completion (packet.rdv).
// The last one completes the transaction's stream-out; without
// reliability it also retires the state.
func (rs *rdvSend) retire() {
	if rs.left--; rs.left > 0 {
		return
	}
	e := rs.eng
	if !rs.done {
		rs.done = true
		e.stats.RdvCompleted++
	}
	if !e.opts.Reliability {
		// Under reliability the state must survive a possible reissue
		// request; the receiver's kindDone entry retires it instead.
		e.dropRdvSend(rs)
	}
	e.releaseRdvSend(rs)
}

// newRdvSend fills a recycled sender-side record for a data wrapper being
// converted to a rendezvous request. The body's segment headers are copied
// into the record's own backing (kept across recycles): the wrapper's may
// be its inline seg, which recycling the wrapper clears and its next
// send overwrites.
func (e *Engine) newRdvSend(id uint32, pw *packet) *rdvSend {
	rs := e.freeRdvSends.get(e.world, cMissRdvSends)
	rs.eng = e
	rs.id, rs.gate, rs.tag, rs.req, rs.live = id, pw.gate, pw.tag, pw.req, true
	rs.body = append(rs.body, pw.iov...)
	e.rdvSend[id] = rs
	return rs
}

// dropRdvSend retires a transaction: it leaves Engine.rdvSend.
func (e *Engine) dropRdvSend(rs *rdvSend) {
	delete(e.rdvSend, rs.id)
	rs.live = false
}

// releaseRdvSend recycles a record nothing refers to any more: the
// transaction is retired, every chunk of its original stream is sent
// (an eager chunk's wrapper refers to the record until then), and none of
// its RDMA chains is still streaming — a reissue can outlive the
// retirement.
func (e *Engine) releaseRdvSend(rs *rdvSend) {
	if rs.live || rs.left > 0 || rs.chains > 0 {
		return
	}
	clear(rs.body)
	*rs = rdvSend{body: rs.body[:0], plan: rs.plan[:0]}
	e.freeRdvSends.put(rs)
}

// rdvKey identifies a receiver-side transaction: rendezvous ids are
// sender-local, so the peer disambiguates.
type rdvKey struct {
	src simnet.NodeID
	id  uint32
}

// landings is the engine's live receiver-side transactions (see rdvRecv)
// and, bound to every rail (Attach), the registry the NICs place RDMA
// bodies through: the one copy a body byte makes, from the sender's memory
// into the landing buffer, when the chunk's DMA read ends. What the bytes
// count toward is settled when the chunk's delivery arrives (onBody).
type landings map[rdvKey]*rdvRecv

// Place writes the bytes at offset at of an RDMA body chunk into its
// transaction's landing buffer. A transaction that has retired takes
// nothing — a late reissue must not write into a buffer that is the
// caller's again.
func (l landings) Place(src simnet.NodeID, aux uint64, at int, b []byte) {
	id, off := splitBodyAux(aux)
	if rr, ok := l[rdvKey{src: src, id: id}]; ok {
		rr.req.iov.copyAt(off+at, b)
	}
}

// splitBodyAux reads the immediate data of an RDMA body chunk: the
// rendezvous id, and the chunk's offset in the body (see rdmaChain.send).
func splitBodyAux(aux uint64) (id uint32, off int) {
	return uint32(aux >> 32), int(uint32(aux))
}

// rdvRecv is the receiver-side state of one rendezvous transaction.
// Records are recycled (Engine.freeRdvRecvs) once they have left
// Engine.rdvRecv. Under Options.Reliability exactly one body watch is
// pending from the grant on, so the watch that finds the record retired
// files it back; without reliability onBody does.
type rdvRecv struct {
	gate      *Gate
	key       rdvKey
	tag       Tag
	req       *RecvRequest
	remaining int // granted bytes not yet landed
	granted   int // bytes the CTS allowed (clamped to the landing area)
	total     int // full body size the RTS announced

	// spans tracks which byte ranges have landed: re-streamed fragments
	// overlapping an already-covered range count nothing, so duplicated
	// body traffic can never double-credit remaining.
	spans []span

	// live marks the transaction as in Engine.rdvRecv. mark is remaining
	// when the pending body watch was armed.
	live bool
	mark int

	listLink[rdvRecv] // Engine.freeRdvRecvs
}

// span is one covered byte range [lo, hi) of a rendezvous body.
type span struct{ lo, hi int }

// cover merges [lo, hi) into the covered set and returns how many bytes
// were newly covered. Bodies arrive as a handful of large fragments, so
// a sorted slice merged in place is plenty: the spans [i, j) that touch
// the fragment collapse into one, or the fragment is inserted at i.
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
		nlo, nhi = min(nlo, s.lo), max(nhi, s.hi)
		j++
	}
	if i == j {
		rr.spans = append(rr.spans, span{})
		copy(rr.spans[i+1:], rr.spans[i:])
	} else {
		rr.spans = append(rr.spans[:i+1], rr.spans[j:]...)
	}
	rr.spans[i] = span{nlo, nhi}
	return newly
}

// releaseRdvRecv recycles a retired receiver-side record that no body
// watch refers to any more.
func (e *Engine) releaseRdvRecv(rr *rdvRecv) {
	*rr = rdvRecv{spans: rr.spans[:0]}
	e.freeRdvRecvs.put(rr)
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
	if !g.win.replace(pw, rts) {
		panic("core: rendezvous conversion of a wrapper not in the window")
	}
	e.newRdvSend(id, pw) // after replace: it takes the payload the window counted
	if e.opts.Credits > 0 {
		g.dropData(pw) // rendezvous traffic is credit-exempt
	}
	e.stats.RdvStarted++
	e.traceEvent(trace.RdvStart, g.peer, -1, pw.tag, size, 0, "")
	// The data wrapper is fully replaced: the rendezvous state holds its
	// own copy of the iovec, and nothing else references the wrapper.
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
		r.complete(truncErr(h.length > 0))
		return
	}
	rr := e.freeRdvRecvs.get(e.world, cMissRdvRecvs)
	rr.gate, rr.key, rr.tag, rr.req, rr.live = g, rdvKey{src: g.peer, id: h.aux}, h.tag, r, true
	rr.remaining, rr.granted, rr.total = grant, grant, int(h.length)
	e.rdvRecv[rr.key] = rr
	g.pushCtrl(kindCTS, h.tag, uint32(grant), h.aux)
	if e.opts.Reliability {
		e.armBodyWatch(rr)
	}
}

// armBodyWatch schedules the rendezvous body progress check: if a
// watched transaction makes no progress over one body-timeout window —
// RDMA fragments travel below the link layer and can be lost outright —
// the receiver re-pushes the CTS and the sender re-streams the span
// (span tracking keeps duplicates harmless). The window is two retransmit
// timeouts, since a body spans many transactions. One watch is pending at
// a time; the record keeps what it compares against.
func (e *Engine) armBodyWatch(rr *rdvRecv) {
	rr.mark = rr.remaining
	e.after(2*e.opts.RetransmitTimeout, rr, 0)
}

// bodyWatch is the body watch's step.
func (e *Engine) bodyWatch(rr *rdvRecv) {
	if !rr.live {
		e.releaseRdvRecv(rr) // landed; the watchdog dies with it
		return
	}
	if rr.remaining >= rr.mark {
		rr.gate.pushCtrl(kindCTS, rr.tag, uint32(rr.granted), rr.key.id)
	}
	e.armBodyWatch(rr)
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
	if rs.left > 0 || rs.done {
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
	e.streamBody(rs, int(h.length), false)
}

// streamBody distributes the granted bytes per the strategy's plan and
// arranges completion accounting. granted may be smaller than the body
// (the receiver clamped the CTS to its landing area); the excess never
// leaves the sender. A reissued span repeats the wire traffic of the
// original stream but touches neither the send request nor the chunk
// countdown — those completed the first time around. Under
// Options.Reliability the unit the original Isend registered stays
// pending until the receiver's kindDone (onRdvDone): the caller's body
// must stay valid for as long as a reissue can read it.
//
// Nothing here allocates per message: the plan is copied into the
// transaction's record first, a counting pass sizes the countdown before
// anything is submitted, eager chunks go out in plan order, and each RDMA
// rail gets one recycled chain that computes its chunks as it streams.
func (e *Engine) streamBody(rs *rdvSend, granted int, reissue bool) {
	size := rs.body.total()
	if granted < size {
		size = granted
	}
	if rs.chains == 0 {
		rs.plan = rs.plan[:0]
	}
	base := len(rs.plan)
	rs.plan = e.planBody(rs.plan, size)

	chunks := 0
	for _, share := range rs.plan[base:] {
		caps := e.rails[share.Rail].drv.Caps()
		for off, end := share.Offset, share.Offset+share.Size; off < end; chunks++ {
			off += rs.chunkLen(caps, off, end)
		}
	}
	if chunks == 0 {
		if reissue {
			return
		}
		// Zero-length (or zero-granted) body: nothing to stream, retire
		// the wrapper.
		rs.req.doneOne()
		e.stats.RdvCompleted++
		e.dropRdvSend(rs)
		e.releaseRdvSend(rs)
		return
	}

	if !reissue {
		rs.req.add(chunks)
		rs.left = chunks
	}
	chunkReq, chunkRdv := rs.req, rs
	if reissue {
		chunkReq, chunkRdv = nil, nil
	}
	for i := base; i < len(rs.plan); i++ {
		share := rs.plan[i]
		r := e.rails[share.Rail]
		caps := r.drv.Caps()
		if caps.RDMA {
			continue
		}
		for off, end := share.Offset, share.Offset+share.Size; off < end; {
			n := rs.chunkLen(caps, off, end)
			e.stats.BodyBytes += int64(n)
			// Non-RDMA rail: the chunk flows through the window as an eager
			// entry bound for the registered landing buffer. The chunk
			// offset rides the seq field; feed retires one unit of chunkReq
			// per entry, and one chunk of the original stream's countdown.
			// The wrapper copies the gather list out of the encode scratch.
			e.encSegs = rs.body.appendRange(e.encSegs[:0], off, n)
			pw := e.newPacket(rs.gate, header{
				kind: kindChunk, flags: flagUnordered, tag: rs.tag, seq: seqNum(uint32(off)), length: uint32(n), aux: rs.id,
			}, r.idx, e.encSegs, chunkReq)
			pw.rdv = chunkRdv
			e.submit(pw)
			off += n
		}
	}
	// RDMA chunks are chained per rail: chunk i+1 is handed to the NIC
	// only when chunk i completes. Submitting the whole body at once
	// would reserve the directed wire end to end, and anything queued
	// after it — link-layer acks in particular — would wait out the full
	// body; under reliability that starvation shows up as spurious
	// retransmissions. Chained, the wire is never claimed more than one
	// chunk ahead. The chains start once every eager chunk is submitted,
	// in the order their rails first appear in the plan.
	for i := base; i < len(rs.plan); i++ {
		if r := e.rails[rs.plan[i].Rail]; r.drv.Caps().RDMA && rs.firstOnRail(base, i) {
			e.newChain(rs, r, reissue, i, len(rs.plan)).send()
		}
	}
	if !reissue && !e.opts.Reliability {
		// Retire the unit the original Isend registered, now that the
		// chunk units carry the completion.
		rs.req.doneOne()
	}
	e.pumpAll()
}

// firstOnRail reports whether share i is the first of the stream whose
// plan starts at base to move bytes on its rail.
func (rs *rdvSend) firstOnRail(base, i int) bool {
	if rs.plan[i].Size <= 0 {
		return false
	}
	for _, s := range rs.plan[base:i] {
		if s.Rail == rs.plan[i].Rail && s.Size > 0 {
			return false
		}
	}
	return true
}

// chunkLen is the length of the body chunk at off on a rail with these
// capabilities, ending no later than end: a whole share on an RDMA rail
// (or Options.BodyChunk of it), the rendezvous threshold on an eager one,
// and never more of the iovec than the rail gathers natively — one slot
// is reserved for the chunk header on eager rails, and respecting it
// keeps vector bodies within the rail's gather list.
func (rs *rdvSend) chunkLen(caps drivers.Caps, off, end int) int {
	n := end - off
	if caps.RDMA {
		if bc := rs.eng.opts.BodyChunk; bc > 0 {
			n = min(n, bc)
		}
	} else {
		csize := caps.RdvThreshold
		if csize <= 0 {
			csize = defaultBodyChunkNonRDMA
		}
		n = min(n, csize)
	}
	return rs.body.capSegs(off, n, max(caps.MaxSegments-1, 1))
}

// rdmaChain streams the chunks one body stream — the original or a
// reissue — puts on one RDMA rail, one chunk in flight at a time. It is
// recycled (Engine.freeChains) once its last chunk has completed; until
// then it counts in rdvSend.chains, which keeps the transaction's record,
// and the plan the chain reads its shares from, in place.
type rdmaChain struct {
	rs      *rdvSend
	rail    *rail
	reissue bool
	// share indexes rs.plan at the share being streamed, end past the
	// stream's last share; off is the next chunk's offset.
	share, end int
	off        int
	// t0 and size describe the chunk in flight; sentFn is sent, bound
	// when the record is first made.
	t0     sim.Time
	size   int
	sentFn func()
	// segs is the chunk's gather list over the caller's iovec. The chunk
	// travels as this very list, which the NIC reads when the chunk's DMA
	// read ends, so it stays put until sent; its backing is kept across
	// recycling.
	segs [][]byte

	listLink[rdmaChain] // Engine.freeChains
}

// newChain starts a recycled chain on rail r at share i of the stream
// whose plan ends at end.
func (e *Engine) newChain(rs *rdvSend, r *rail, reissue bool, i, end int) *rdmaChain {
	c := e.freeChains.get(e.world, cMissChains)
	if c.sentFn == nil { // fresh, not recycled
		c.sentFn = c.sent
	}
	c.rs, c.rail, c.reissue = rs, r, reissue
	c.share, c.end, c.off = i, end, rs.plan[i].Offset
	rs.chains++
	return c
}

// send hands the chain's next chunk to the NIC and moves past it.
func (c *rdmaChain) send() {
	rs, r := c.rs, c.rail
	e := rs.eng
	end := rs.plan[c.share].Offset + rs.plan[c.share].Size
	n := rs.chunkLen(r.drv.Caps(), c.off, end)
	// Every chunk, original or reissue, is read from the caller's iovec
	// when its DMA read ends. An original chunk's unit keeps the send
	// request pending until then; a reissue is covered by the unit only
	// the receiver's kindDone retires, and one still reading after that
	// places nothing (the receiver has retired the transaction).
	c.segs = rs.body.appendRange(c.segs[:0], c.off, n)
	e.stats.BodyBytes += int64(n)
	r.bytes += int64(n)
	e.stats.WireBytes += int64(n)
	aux := uint64(rs.id)<<32 | uint64(uint32(c.off))
	c.t0, c.size = e.world.Now(), n
	if c.off += n; c.off == end {
		// On to the rail's next share of the stream, if the plan has one.
		for c.share++; c.share < c.end; c.share++ {
			if s := rs.plan[c.share]; s.Rail == r.idx && s.Size > 0 {
				c.off = s.Offset
				break
			}
		}
	}
	if err := r.drv.Send(rs.gate.peer, simnet.TxRdma, c.segs, aux, c.sentFn); err != nil {
		panic("core: rendezvous body submit failed: " + err.Error())
	}
}

// sent runs when the NIC is done with the chunk in flight: the sampler and
// the strategy see the transaction, the original stream counts the chunk,
// and the next chunk goes out — or the chain is done and recycled.
func (c *rdmaChain) sent() {
	rs, r := c.rs, c.rail
	e := rs.eng
	dur := e.world.Now() - c.t0
	r.sampler.observe(c.size, dur)
	e.notifyComplete(r.idx, rs.gate.peer, c.size, 0, dur)
	if !c.reissue {
		rs.req.doneOne()
		rs.retire()
	}
	if c.share < c.end {
		c.send()
		return
	}
	rs.chains--
	clear(c.segs)
	*c = rdmaChain{sentFn: c.sentFn, segs: c.segs[:0]}
	e.freeChains.put(c)
	e.releaseRdvSend(rs)
}

// onRdvDone retires sender-side rendezvous state when the receiver
// reports the whole body landed (Options.Reliability; the entry rides a
// reliable frame, so it arrives exactly once), and with it the unit of
// the send request that streamBody left pending: the caller's body is
// the caller's again.
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
	req := rs.req
	e.dropRdvSend(rs)
	e.releaseRdvSend(rs)
	req.doneOne()
}

// onBody accounts for an arrived body fragment of n bytes at offset: an
// eager chunk's payload, which it copies into the landing buffer, or an
// RDMA chunk's (data nil), which the NIC placed when the chunk's DMA read
// ended (landings.Place). Either way no host copy is charged: the
// registered buffer is written directly.
func (e *Engine) onBody(src simnet.NodeID, id uint32, offset, n int, data []byte) {
	key := rdvKey{src: src, id: id}
	rr, ok := e.rdvRecv[key]
	if !ok {
		e.protoErr(e.Gate(src), fmt.Sprintf("body fragment for unknown rendezvous %v", key))
		return
	}
	r := rr.req
	r.iov.copyAt(offset, data)
	// Only newly covered bytes count: a re-streamed or duplicated span
	// overlaps what already landed and must not double-credit remaining.
	rr.remaining -= rr.cover(offset, offset+n)
	e.traceEvent(trace.RdvBody, src, -1, r.tag, n, 0, "")
	if rr.remaining == 0 {
		delete(e.rdvRecv, key)
		rr.live = false
		if e.opts.Reliability {
			// Tell the sender it may retire its state and complete the
			// send (both wait for this to answer reissue requests).
			e.Gate(src).pushCtrl(kindDone, r.tag, 0, id)
		}
		r.n = rr.granted
		err := truncErr(rr.total > rr.granted)
		if !e.opts.Reliability {
			e.releaseRdvRecv(rr) // else the pending body watch does
		}
		r.complete(err)
		e.releaseGrants()
	}
}
