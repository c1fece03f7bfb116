package core

import (
	"fmt"

	"nmad/internal/sim"
	"nmad/internal/simnet"
)

// Gate is a connection to one peer node (NewMadeleine terminology). All
// sends and receives are gate-scoped; the engine optimizes across every
// flow of every gate.
type Gate struct {
	eng  *Engine
	peer simnet.NodeID
	win  *window
	// views holds the per-rail sched.Window adapters, one per attached
	// driver, so elections pass a pointer into this array instead of
	// boxing a fresh view per Elect call (see strategy.go).
	views []windowView

	// sender side: next sequence number per flow tag.
	sendSeq tagTable[seqNum]

	// receiver side: resequencing per flow, posted receives, unexpected
	// arrivals.
	flows      tagTable[rxFlow]
	posted     []*RecvRequest
	unexpected []*inEntry
	probers    []*sim.Proc // parked in ProbeWait, woken by the next unexpected arrival

	// credit-based flow control (Options.Credits > 0). credits is the
	// sender-side budget: eager landing credits left at the peer.
	// creditOwed is the receiver-side tally of consumed wrappers whose
	// credits have not been replenished yet. dataFIFO holds the unsent
	// data wrappers in submission order: the credit window is its first
	// `credits` entries gate-wide, so the oldest unsent wrapper is
	// always eligible and a later wrapper (on another rail, or elected
	// past the head by a strategy) can never take the last credit and
	// strand the flow head — the receiver would hold the later wrapper
	// in its resequencing buffer forever, a flow-control deadlock.
	credits    int
	creditOwed int
	// dataFIFO[dataHead:] is the live queue; the dead prefix is
	// compacted away once it outgrows the tail (see dropData).
	dataFIFO []*packet
	dataHead int

	// protoErrs counts receive-path protocol anomalies attributed to
	// this gate (see Engine.protoErr).
	protoErrs int

	// Link-layer reliability state (Options.Reliability, see reliab.go):
	// ltx retains unacknowledged outbound frames, lrx deduplicates
	// inbound ones and owes the cumulative ack.
	ltx linkTx
	lrx linkRx
}

// Peer returns the remote node the gate connects to.
func (g *Gate) Peer() simnet.NodeID { return g.peer }

// Engine returns the owning engine.
func (g *Gate) Engine() *Engine { return g.eng }

// sendConfig is the resolved scheduling configuration of one submission.
type sendConfig struct {
	// flags carry the scheduling/delivery hints on the wrapper.
	flags flags
	// driver pins the wrapper to one rail (index into Engine.Drivers),
	// or anyDriver for the load-balanced common list.
	driver int
}

// SendOption tunes one submission: Priority, Unordered, Synchronous,
// OnRail. Options replace the raw flag/driver struct literals of earlier
// versions at the API boundary.
type SendOption func(*sendConfig)

// Priority asks the optimizer to favor earliest delivery of this
// submission (the paper's RPC service-id pattern).
func Priority() SendOption {
	return func(c *sendConfig) { c.flags |= flagPriority }
}

// Unordered lets the receiver deliver this submission as soon as it
// arrives, outside the per-flow sequence order.
func Unordered() SendOption {
	return func(c *sendConfig) { c.flags |= flagUnordered }
}

// Synchronous completes the send only once the receiver has matched it
// (MPI_Issend semantics).
func Synchronous() SendOption {
	return func(c *sendConfig) { c.flags |= flagNeedAck }
}

// OnRail pins the submission to one rail (an index into Engine.Drivers)
// instead of the load-balanced common list. A send pinned to a rail the
// engine does not have completes at once with ErrBadRail.
func OnRail(driver int) SendOption {
	return func(c *sendConfig) { c.driver = driver }
}

// resolveSend folds options over the default configuration. The common
// send has no options and returns before c exists: an option takes c's
// address, which moves c to the heap — one allocation per message.
func resolveSend(opts []SendOption) sendConfig {
	if len(opts) == 0 {
		return sendConfig{driver: anyDriver}
	}
	c := sendConfig{driver: anyDriver}
	for _, o := range opts {
		o(&c)
	}
	return c
}

// Isend submits one piece of data on flow tag and returns immediately.
// The request completes when the NIC has finished with the data (for
// rendezvous sends, when the body has fully streamed out). p may be nil
// when calling from non-process context; neither the submit overhead nor
// the software-gather copy cost is then charged, and nothing can Wait on
// the request. A scheduler-context caller that wants the same schedule a
// process would get uses PostSendv / PostRecvvMasked instead.
func (g *Gate) Isend(p *sim.Proc, tag Tag, data []byte, opts ...SendOption) *SendRequest {
	return g.isendIov(p, tag, singleIov(data), resolveSend(opts))
}

// Isendv is the vector form of Isend: the segments of the iovec travel as
// one wrapper — one wire entry under one header, NIC-gathered straight
// from user space. This is how a non-contiguous datatype submits its
// blocks so the strategies can aggregate and reorder the whole layout
// natively (the paper's §5.3 optimization without per-block requests).
func (g *Gate) Isendv(p *sim.Proc, tag Tag, segs [][]byte, opts ...SendOption) *SendRequest {
	return g.isendIov(p, tag, iovec(segs), resolveSend(opts))
}

// sendCheck is the entry check of every send, packed pieces included:
// the engine has a rail, and the rail the submission is pinned to exists.
func (g *Gate) sendCheck(cfg sendConfig) error {
	n := len(g.eng.rails)
	if n == 0 {
		return errNoDrivers
	}
	if cfg.driver != anyDriver && (cfg.driver < 0 || cfg.driver >= n) {
		return fmt.Errorf("%w: rail %d of %d", ErrBadRail, cfg.driver, n)
	}
	return nil
}

func (g *Gate) isendIov(p *sim.Proc, tag Tag, iov iovec, cfg sendConfig) *SendRequest {
	if err := g.sendCheck(cfg); err != nil {
		return failedSend(tag, nil, err)
	}
	g.eng.recordSend(g, tag, iov, cfg)
	g.eng.chargeSubmit(p)
	size := iov.total()
	if g.eng.needsFlatten(cfg.driver, 1+iov.segCount(), size) {
		// Software gather in the collect layer: no eligible rail can
		// move this many segments natively (or via rendezvous), so
		// flatten once here and charge the memcpy to the submitting
		// process — the same price the transfer-layer bounce buffers
		// charge (and what MPICH pays for every non-contiguous send).
		iov = iovec{iov.flatten()}
		g.eng.chargeCopy(p, size)
	}
	return g.submitSend(&SendRequest{tag: tag, bytes: size}, iov, cfg)
}

// PostSendv is Isendv for a caller in scheduler context — a World.At
// callback, which has no process to sleep or Wait with. It enters the
// collect layer at the current instant and pays exactly what a process
// would: the submit overhead and, on the software-gather path, the copy
// cost elapse as World.After continuations pushed where the process's
// Sleeps would have pushed its wake-ups (none when the charge is skipped:
// the continuation then runs inline), so a workload driven either way
// produces the same schedule. done is called once, in scheduler context,
// with the completion error at the instant the request completes —
// possibly before PostSendv returns (a send that fails its entry check).
//
// The returned request is the send's, made at entry: it is pending while
// the overheads elapse and the message travels, and Done from the instant
// done is called. Nothing can Wait on it (there is no process); a caller
// keeps it to ask Done or Err later instead of capturing per-message state
// in done, which lets one hook serve every send.
func (g *Gate) PostSendv(tag Tag, segs [][]byte, done func(err error), opts ...SendOption) *SendRequest {
	iov, cfg := iovec(segs), resolveSend(opts)
	if err := g.sendCheck(cfg); err != nil {
		return failedSend(tag, done, err)
	}
	g.eng.recordSend(g, tag, iov, cfg)
	req := &SendRequest{request: request{hook: done}, tag: tag, bytes: iov.total()}
	g.eng.post(pendingPost{g: g, send: req, iov: iov, cfg: cfg})
	return req
}

// failedSend is the send that failed sendCheck: a request that is
// already complete with the error.
func failedSend(tag Tag, hook func(error), err error) *SendRequest {
	req := &SendRequest{request: request{hook: hook}, tag: tag}
	req.complete(err)
	return req
}

// submitSend is what a send does once its host costs are paid, whoever
// paid them (a process in isendIov, the post FIFO for PostSendv): wrap
// the iovec, take the flow's next sequence number, and hand the wrapper
// to the optimizer. req carries the tag and the size.
func (g *Gate) submitSend(req *SendRequest, iov iovec, cfg sendConfig) *SendRequest {
	req.add(1)
	pw := g.eng.newPacket(g, header{
		kind: kindData, flags: cfg.flags, tag: req.tag, seq: g.seqFor(req.tag, cfg.flags), length: uint32(req.bytes),
	}, cfg.driver, iov, req)
	if cfg.flags&flagNeedAck != 0 {
		// Synchronous semantics: an extra completion unit retired only by
		// the receiver's ack.
		req.add(1)
		g.eng.nextSyncID++
		pw.aux = g.eng.nextSyncID
		g.eng.syncAcks[pw.aux] = req
	}
	g.eng.submit(pw)
	return req
}

// Issend is Isend with synchronous completion: the request finishes only
// once the receiver has matched the message (MPI_Issend semantics). For
// messages above the rendezvous threshold this is free — the rendezvous
// handshake already implies a match; below it the receiver returns an ack
// control entry.
func (g *Gate) Issend(p *sim.Proc, tag Tag, data []byte, opts ...SendOption) *SendRequest {
	return g.Isend(p, tag, data, append(opts, Synchronous())...)
}

// Ssend is the blocking form of Issend.
func (g *Gate) Ssend(p *sim.Proc, tag Tag, data []byte) error {
	return g.Issend(p, tag, data).Wait(p)
}

// Probe reports whether a message matching (want, mask) has arrived and
// is waiting unexpected, without consuming it. It returns the matched tag
// and payload size (the body size for a rendezvous request).
func (g *Gate) Probe(want, mask Tag) (ok bool, tag Tag, size int) {
	for _, ent := range g.unexpected {
		if ent.h.tag&mask == want&mask {
			n := len(ent.payload)
			if ent.h.kind == kindRTS {
				n = int(ent.h.length)
			}
			return true, ent.h.tag, n
		}
	}
	return false, 0, 0
}

// ProbeWait blocks until a matching message is waiting (MPI_Probe).
func (g *Gate) ProbeWait(p *sim.Proc, want, mask Tag) (tag Tag, size int) {
	for {
		if ok, tag, size := g.Probe(want, mask); ok {
			return tag, size
		}
		g.probers = append(g.probers, p)
		p.Park()
	}
}

// Send is the blocking convenience over Isend.
func (g *Gate) Send(p *sim.Proc, tag Tag, data []byte) error {
	return g.Isend(p, tag, data).Wait(p)
}

// Irecv posts a receive for the next message on flow tag, delivering into
// buf. The request completes once the payload is in place.
func (g *Gate) Irecv(p *sim.Proc, tag Tag, buf []byte) *RecvRequest {
	return g.irecv(p, singleRecv(tag, ^Tag(0), buf))
}

// Irecvv is the vector form of Irecv: the payload of the matched message
// scatters across the iovec segments in order, with no staging copy. It
// pairs with Isendv — the usual contract of matching layouts on both
// sides.
func (g *Gate) Irecvv(p *sim.Proc, tag Tag, segs [][]byte) *RecvRequest {
	return g.irecv(p, &RecvRequest{want: tag, mask: ^Tag(0), iov: segs})
}

// IrecvMasked posts a wildcard receive: it matches the first arriving
// message whose tag satisfies tag&mask == want&mask. MAD-MPI builds
// ANY_TAG receives on it by masking out the user-tag bits.
func (g *Gate) IrecvMasked(p *sim.Proc, want, mask Tag, buf []byte) *RecvRequest {
	return g.irecv(p, singleRecv(want, mask, buf))
}

// IrecvvMasked is the vector form of IrecvMasked: a wildcard receive
// scattering across the iovec segments. It is the general receive shape
// a replayed recording re-posts (package replay).
func (g *Gate) IrecvvMasked(p *sim.Proc, want, mask Tag, segs [][]byte) *RecvRequest {
	return g.irecv(p, &RecvRequest{want: want, mask: mask, iov: segs})
}

// singleRecv builds the request of a receive into one buffer (possibly
// nil). Its one-segment landing area is the request's own, so the
// receive is one allocation, not a request and an iovec.
func singleRecv(want, mask Tag, buf []byte) *RecvRequest {
	req := &RecvRequest{want: want, mask: mask}
	req.one[0] = buf
	req.iov = req.one[:]
	return req
}

func (g *Gate) irecv(p *sim.Proc, req *RecvRequest) *RecvRequest {
	g.eng.recordRecv(g, req)
	g.eng.chargeSubmit(p)
	g.postRecv(req)
	return req
}

// PostRecvvMasked is IrecvvMasked for a caller in scheduler context; see
// PostSendv. With no submit overhead to wait out, a message already
// waiting unexpected is matched before PostRecvvMasked returns; done
// still follows by the payload copy cost, as completion does for a
// waiting process. The returned request is the receive's, posted once the
// overhead has elapsed and Done from the instant done is called; as with
// PostSendv, it is what a caller keeps instead of per-receive state in
// done.
func (g *Gate) PostRecvvMasked(want, mask Tag, segs [][]byte, done func(err error)) *RecvRequest {
	req := &RecvRequest{request: request{hook: done}, want: want, mask: mask, iov: segs}
	g.eng.recordRecv(g, req)
	g.eng.post(pendingPost{g: g, recv: req})
	return req
}

// postRecv is what a receive does once its submit overhead is paid: match
// the oldest unexpected arrival, or queue behind the posted receives.
func (g *Gate) postRecv(req *RecvRequest) {
	if !g.matchUnexpected(req) {
		g.posted = append(g.posted, req)
	}
}

// Recv is the blocking convenience over Irecv; it returns the payload
// size.
func (g *Gate) Recv(p *sim.Proc, tag Tag, buf []byte) (int, error) {
	req := g.Irecv(p, tag, buf)
	if err := req.Wait(p); err != nil {
		return req.N(), err
	}
	return req.N(), nil
}

// dataWindow is the live credit-eligibility FIFO, oldest unsent data
// wrapper first.
func (g *Gate) dataWindow() []*packet { return g.dataFIFO[g.dataHead:] }

// dropData removes a wrapper from the credit-eligibility FIFO (it was
// sent, or converted to a credit-exempt rendezvous request). Elections
// prefer the FIFO head, so the common case advances the head offset in
// O(1); mid-queue removals (rendezvous conversion, an out-of-order
// election) shift the tail.
func (g *Gate) dropData(pw *packet) {
	for i := g.dataHead; i < len(g.dataFIFO); i++ {
		if g.dataFIFO[i] != pw {
			continue
		}
		if i == g.dataHead {
			g.dataFIFO[i] = nil
			g.dataHead++
			if g.dataHead*2 >= len(g.dataFIFO) {
				g.dataFIFO = append(g.dataFIFO[:0], g.dataFIFO[g.dataHead:]...)
				g.dataHead = 0
			}
		} else {
			copy(g.dataFIFO[i:], g.dataFIFO[i+1:])
			g.dataFIFO[len(g.dataFIFO)-1] = nil
			g.dataFIFO = g.dataFIFO[:len(g.dataFIFO)-1]
		}
		return
	}
}

// tagSlots is how many distinct flow tags per gate a tagTable holds in
// its flat fast-path array before falling back to a map. Tags are
// arbitrary 64-bit values (MAD-MPI packs the communicator id into the
// high bits), so the slots pair tag and value rather than indexing by
// tag; a linear scan over at most tagSlots entries beats a map probe and
// its allocation. The benchmark exercises both sides of the eight, which
// is why both paths stay: pingpong-64B, bulk-4MB-2rail and
// incast-16to1-lossy put one tag on a gate; multiflow-16x256B and Figures
// 3b/3d put 16 communicators on one, so half their lookups take the map,
// as do 16 % of ring-replay-1024's (11 tags) and 27 % of scenario-corpus's.
const tagSlots = 8

// tagTable is a gate's per-flow state keyed by flow tag: the first
// tagSlots distinct tags live in a flat association array scanned
// linearly, the rest in a map made lazily — a gate with at most tagSlots
// flows never pays for it.
type tagTable[V any] struct {
	tags [tagSlots]Tag
	vals [tagSlots]V
	n    int
	more map[Tag]*V
}

// at returns the state of a flow, zero on first use.
func (t *tagTable[V]) at(tag Tag) *V {
	for i := 0; i < t.n; i++ {
		if t.tags[i] == tag {
			return &t.vals[i]
		}
	}
	if t.n < tagSlots {
		t.tags[t.n] = tag
		t.n++
		return &t.vals[t.n-1]
	}
	v := t.more[tag]
	if v == nil {
		if t.more == nil {
			t.more = make(map[Tag]*V)
		}
		v = new(V)
		t.more[tag] = v
	}
	return v
}

// nextSeq assigns the next sender-side sequence number of a flow.
func (g *Gate) nextSeq(tag Tag) seqNum {
	s := g.sendSeq.at(tag)
	*s++
	return *s - 1
}

// seqFor assigns the flow sequence number of one data wrapper. Unordered
// wrappers bypass the receiver's resequencing entirely, so they must not
// consume a slot in the flow order: an ordered send following an
// unordered one on the same flow would otherwise wait forever for a
// sequence number nobody delivers in order.
func (g *Gate) seqFor(tag Tag, flags flags) seqNum {
	if flags&flagUnordered != 0 {
		return 0
	}
	return g.nextSeq(tag)
}

// pushCtrl submits a control wrapper (rendezvous handshake). Control
// wrappers are priority + unordered and ride the common list so the first
// idle rail carries them.
func (g *Gate) pushCtrl(kind entryKind, tag Tag, size uint32, rdvID uint32) {
	g.eng.submit(g.eng.newPacket(g, header{
		kind: kind, flags: flagPriority | flagUnordered, tag: tag, length: size, aux: rdvID,
	}, anyDriver, nil, nil))
}

// PendingUnexpected reports how many arrived-but-unmatched wrappers the
// gate holds (diagnostics).
func (g *Gate) PendingUnexpected() int { return len(g.unexpected) }

// PendingPosted reports how many posted receives await a match.
func (g *Gate) PendingPosted() int { return len(g.posted) }

// Credits reports the remaining eager landing credits at the peer, or
// -1 when flow control is disabled (Options.Credits == 0).
func (g *Gate) Credits() int {
	if g.eng.opts.Credits == 0 {
		return -1
	}
	return g.credits
}

// ProtocolErrors reports how many receive-path protocol anomalies were
// counted against this gate instead of crashing the node.
func (g *Gate) ProtocolErrors() int { return g.protoErrs }
