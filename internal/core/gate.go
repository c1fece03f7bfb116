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
// rendezvous sends, when the body has fully streamed out, and under
// Options.Reliability when the receiver reports it landed). p may be nil
// when calling from non-process context; neither the submit overhead nor
// the software-gather copy cost is then charged, and nothing can Wait on
// the request. A scheduler-context caller that wants the same schedule a
// process would get uses PostSendv / PostRecvvMasked instead.
func (g *Gate) Isend(p *sim.Proc, tag Tag, data []byte, opts ...SendOption) *SendRequest {
	req := new(SendRequest)
	g.isendIov(req, p, tag, singleIov(data), resolveSend(opts))
	return req
}

// Isendv is the vector form of Isend: the segments of the iovec travel as
// one wrapper — one wire entry under one header, NIC-gathered straight
// from user space. This is how a non-contiguous datatype submits its
// blocks so the strategies can aggregate and reorder the whole layout
// natively (the paper's §5.3 optimization without per-block requests).
func (g *Gate) Isendv(p *sim.Proc, tag Tag, segs [][]byte, opts ...SendOption) *SendRequest {
	req := new(SendRequest)
	IsendvInto(req, g, p, tag, segs, nil, opts...)
	return req
}

// IsendvInto is g.Isendv with the request in the caller's storage: req,
// which must be a zero SendRequest that is never copied, becomes the
// send's request. A layer that keeps its own handle beside the engine
// request (MAD-MPI's Request) allocates the two as one record this way.
// segs is not retained, so a one-buffer send can pass a composite literal
// that stays on the caller's stack. done, when not nil, is called once in
// scheduler context with the completion error at the instant req
// completes — before IsendvInto returns for a send that fails its entry
// check — so a caller with many requests in flight learns which one
// finished without scanning them.
func IsendvInto(req *SendRequest, g *Gate, p *sim.Proc, tag Tag, segs [][]byte, done func(err error), opts ...SendOption) {
	req.hook = done
	g.isendIov(req, p, tag, iovec(segs), resolveSend(opts))
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

// isendIov initialises req as the send of iov on flow tag and submits it;
// a send that fails its entry check completes req with the error.
func (g *Gate) isendIov(req *SendRequest, p *sim.Proc, tag Tag, iov iovec, cfg sendConfig) {
	req.tag = tag
	if err := g.sendCheck(cfg); err != nil {
		req.complete(err)
		return
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
	req.bytes = size
	g.submitSend(req, iov, cfg)
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
// req, a zero SendRequest in the caller's storage that is never copied,
// becomes the send's request, as for IsendvInto: it is pending while the
// overheads elapse and the message travels, and Done from the instant
// done is called. Nothing can Wait on it (there is no process); a caller
// that keeps its requests side by side asks them Done or Err later
// instead of capturing per-message state in done, which lets one hook
// serve every send.
func (g *Gate) PostSendv(req *SendRequest, tag Tag, segs [][]byte, done func(err error), opts ...SendOption) {
	iov, cfg := iovec(segs), resolveSend(opts)
	req.hook, req.tag = done, tag
	if err := g.sendCheck(cfg); err != nil {
		req.complete(err)
		return
	}
	g.eng.recordSend(g, tag, iov, cfg)
	req.bytes = iov.total()
	g.eng.post(pendingPost{g: g, send: req, iov: iov, cfg: cfg})
}

// submitSend is what a send does once its host costs are paid, whoever
// paid them (a process in isendIov, the post FIFO for PostSendv): wrap
// the iovec, take the flow's next sequence number, and hand the wrapper
// to the optimizer. req carries the tag and the size.
func (g *Gate) submitSend(req *SendRequest, iov iovec, cfg sendConfig) {
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
}

// Issend is Isend with synchronous completion: the request finishes only
// once the receiver has matched the message (MPI_Issend semantics). For
// messages above the rendezvous threshold this is free — the rendezvous
// handshake already implies a match; below it the receiver returns an ack
// control entry.
func (g *Gate) Issend(p *sim.Proc, tag Tag, data []byte, opts ...SendOption) *SendRequest {
	return g.Isend(p, tag, data, append(opts, Synchronous())...)
}

// Ssend is the blocking form of Issend; like Send, it runs on a request
// of the engine's.
func (g *Gate) Ssend(p *sim.Proc, tag Tag, data []byte) error {
	return g.send(p, tag, data, sendConfig{flags: flagNeedAck, driver: anyDriver})
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

// Send is the blocking form of Isend. The caller never sees its
// request, so the request is the engine's: taken from a free list and
// filed back before Send returns.
func (g *Gate) Send(p *sim.Proc, tag Tag, data []byte) error {
	return g.send(p, tag, data, sendConfig{driver: anyDriver})
}

// send submits data on an engine-owned request, waits it out and files
// the request back (pool.go has the ownership rule that allows it).
func (g *Gate) send(p *sim.Proc, tag Tag, data []byte, cfg sendConfig) error {
	req := g.eng.freeSends.get(g.eng.world, cMissSends)
	g.isendIov(req, p, tag, singleIov(data), cfg)
	err := req.Wait(p)
	g.eng.freeSendRequest(req)
	return err
}

// Irecv posts a receive for the next message on flow tag, delivering into
// buf. The request completes once the payload is in place.
func (g *Gate) Irecv(p *sim.Proc, tag Tag, buf []byte) *RecvRequest {
	return g.IrecvMasked(p, tag, ^Tag(0), buf)
}

// Irecvv is the vector form of Irecv: the payload of the matched message
// scatters across the iovec segments in order, with no staging copy. It
// pairs with Isendv — the usual contract of matching layouts on both
// sides.
func (g *Gate) Irecvv(p *sim.Proc, tag Tag, segs [][]byte) *RecvRequest {
	return g.IrecvvMasked(p, tag, ^Tag(0), segs)
}

// IrecvMasked posts a wildcard receive: it matches the first arriving
// message whose tag satisfies tag&mask == want&mask. MAD-MPI builds
// ANY_TAG receives on it by masking out the user-tag bits.
func (g *Gate) IrecvMasked(p *sim.Proc, want, mask Tag, buf []byte) *RecvRequest {
	req := new(RecvRequest)
	IrecvMaskedInto(req, g, p, want, mask, buf, nil)
	return req
}

// IrecvvMasked is the vector form of IrecvMasked: a wildcard receive
// scattering across the iovec segments. It is the general receive shape
// a replayed recording re-posts (package replay).
func (g *Gate) IrecvvMasked(p *sim.Proc, want, mask Tag, segs [][]byte) *RecvRequest {
	req := new(RecvRequest)
	IrecvvMaskedInto(req, g, p, want, mask, segs, nil)
	return req
}

// IrecvMaskedInto is g.IrecvMasked with the request in the caller's
// storage, as IsendvInto is for a send: req must be a zero RecvRequest
// that is never copied, and done, when not nil, is called at the instant
// it completes. The one-segment landing area is the request's own, so
// the receive allocates nothing beyond req.
func IrecvMaskedInto(req *RecvRequest, g *Gate, p *sim.Proc, want, mask Tag, buf []byte, done func(err error)) {
	req.one[0] = buf
	IrecvvMaskedInto(req, g, p, want, mask, req.one[:], done)
}

// IrecvvMaskedInto is the vector form of IrecvMaskedInto; the request
// lands the payload in segs, which it keeps until it completes.
func IrecvvMaskedInto(req *RecvRequest, g *Gate, p *sim.Proc, want, mask Tag, segs [][]byte, done func(err error)) {
	req.hook, req.want, req.mask, req.iov = done, want, mask, segs
	g.eng.recordRecv(g, req)
	g.eng.chargeSubmit(p)
	g.postRecv(req)
}

// PostRecvvMasked is IrecvvMasked for a caller in scheduler context; see
// PostSendv. With no submit overhead to wait out, a message already
// waiting unexpected is matched before PostRecvvMasked returns; done
// still follows by the payload copy cost, as completion does for a
// waiting process. req, a zero RecvRequest in the caller's storage, is
// posted once the overhead has elapsed and is Done from the instant done
// is called.
func (g *Gate) PostRecvvMasked(req *RecvRequest, want, mask Tag, segs [][]byte, done func(err error)) {
	req.hook, req.want, req.mask, req.iov = done, want, mask, segs
	g.eng.recordRecv(g, req)
	g.eng.post(pendingPost{g: g, recv: req})
}

// postRecv is what a receive does once its submit overhead is paid: match
// the oldest unexpected arrival, or queue behind the posted receives.
func (g *Gate) postRecv(req *RecvRequest) {
	if !g.matchUnexpected(req) {
		g.posted = append(g.posted, req)
	}
}

// Recv is the blocking form of Irecv; it returns the payload size.
func (g *Gate) Recv(p *sim.Proc, tag Tag, buf []byte) (int, error) {
	n, _, err := g.RecvMasked(p, tag, ^Tag(0), buf)
	return n, err
}

// RecvMasked is the blocking form of IrecvMasked: it returns the payload
// size and the matched tag, set even when the receive ends in an error
// (ErrTruncated). As for Send, the request is the engine's and goes back
// on its list before RecvMasked returns.
func (g *Gate) RecvMasked(p *sim.Proc, want, mask Tag, buf []byte) (n int, tag Tag, err error) {
	req := g.eng.freeRecvs.get(g.eng.world, cMissRecvs)
	IrecvMaskedInto(req, g, p, want, mask, buf, nil)
	err = req.Wait(p)
	n, tag = req.n, req.tag
	g.eng.freeRecvRequest(req)
	return n, tag, err
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
