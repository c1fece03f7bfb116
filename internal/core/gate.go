package core

import (
	"cmp"
	"fmt"
	"slices"

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

	// Per-flow ordering, both directions: the next sequence number sent
	// and delivered on each flow tag, the ordered wrappers that arrived
	// ahead of their turn (held, gate-wide), and the one-shot lane, which
	// numbers and deduplicates the wrappers of flows that carry one
	// message (IsendvOnceInto) so they keep no per-tag state.
	flows flowTable
	held  []*inEntry
	once  onceLane

	// receiver side: posted receives, unexpected arrivals.
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

	// slabs carves the requests of the gate's nonblocking calls (pool.go).
	slabs reqSlabs
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
//
// The request is carved from one of the gate's 512-byte slabs, not
// allocated per call, and is never recycled: it stays the caller's for
// good, and no later call's request aliases it (pool.go).
func (g *Gate) Isend(p *sim.Proc, tag Tag, data []byte, opts ...SendOption) *SendRequest {
	req := g.slabs.send()
	g.isendIov(req, p, tag, singleIov(data), resolveSend(opts))
	return req
}

// Isendv is the vector form of Isend: the segments of the iovec travel as
// one wrapper — one wire entry under one header, NIC-gathered straight
// from user space. This is how a non-contiguous datatype submits its
// blocks so the strategies can aggregate and reorder the whole layout
// natively (the paper's §5.3 optimization without per-block requests).
func (g *Gate) Isendv(p *sim.Proc, tag Tag, segs [][]byte, opts ...SendOption) *SendRequest {
	req := g.slabs.send()
	IsendvInto(req, g, p, tag, segs, 0, nil, opts...)
	return req
}

// IsendvInto is g.Isendv with the request in the caller's storage: req,
// which must be a zero SendRequest that is never copied, becomes the
// send's request. A layer that keeps its own handle beside the engine
// request (MAD-MPI's Request) allocates the two as one record this way.
// segs is not retained, so a one-buffer send can pass a composite literal
// that stays on the caller's stack. done, when not nil, is called once in
// scheduler context with id and the completion error at the instant req
// completes — before IsendvInto returns for a send that fails its entry
// check — so a caller with many requests in flight binds one done for all
// of them and learns from id which one finished, without scanning them.
func IsendvInto(req *SendRequest, g *Gate, p *sim.Proc, tag Tag, segs [][]byte, id uint32, done func(id uint32, err error), opts ...SendOption) {
	req.id, req.hook = id, done
	g.isendIov(req, p, tag, iovec(segs), resolveSend(opts))
}

// IsendvOnceInto is IsendvInto for the one message ever sent on its tag,
// with no options: a collective step, whose tag MAD-MPI never reuses. A
// flow of one message has no order to keep, so neither gate keeps state
// for its tag. The wrapper takes its sequence number from the gate's
// one-shot lane instead, where the receiver drops a duplicate as it
// drops one on an ordered flow (onceLane). It is delivered as it
// arrives, ordered against no other send on its tag. A recording notes
// it as a plain send: a replay sends a flow of one in order, which
// delivers the same.
func IsendvOnceInto(req *SendRequest, g *Gate, p *sim.Proc, tag Tag, segs [][]byte, id uint32, done func(id uint32, err error)) {
	req.id, req.hook = id, done
	g.isendIov(req, p, tag, iovec(segs), sendConfig{flags: flagOnce, driver: anyDriver})
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
// possibly before PostSendv returns (a send that fails its entry check) —
// and an id of 0: only the Into forms number their requests.
//
// req, a zero SendRequest in the caller's storage that is never copied,
// becomes the send's request, as for IsendvInto: it is pending while the
// overheads elapse and the message travels, and Done from the instant
// done is called. Nothing can Wait on it (there is no process); a caller
// that keeps its requests side by side asks them Done or Err later
// instead of capturing per-message state in done, which lets one hook
// serve every send.
func (g *Gate) PostSendv(req *SendRequest, tag Tag, segs [][]byte, done func(id uint32, err error), opts ...SendOption) {
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
		if g.eng.syncAcks == nil {
			g.eng.syncAcks = make(map[uint32]*SendRequest)
		}
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
	cfg := resolveSend(opts)
	cfg.flags |= flagNeedAck
	req := g.slabs.send()
	g.isendIov(req, p, tag, singleIov(data), cfg)
	return req
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
// ANY_TAG receives on it by masking out the user-tag bits. As for Isend,
// the request is carved from one of the gate's slabs and stays the
// caller's for good (pool.go).
func (g *Gate) IrecvMasked(p *sim.Proc, want, mask Tag, buf []byte) *RecvRequest {
	req := g.slabs.recv()
	IrecvMaskedInto(req, g, p, want, mask, buf, 0, nil)
	return req
}

// IrecvvMasked is the vector form of IrecvMasked: a wildcard receive
// scattering across the iovec segments. It is the general receive shape
// a replayed recording re-posts (package replay).
func (g *Gate) IrecvvMasked(p *sim.Proc, want, mask Tag, segs [][]byte) *RecvRequest {
	req := g.slabs.recv()
	IrecvvMaskedInto(req, g, p, want, mask, segs, 0, nil)
	return req
}

// IrecvMaskedInto is g.IrecvMasked with the request in the caller's
// storage, as IsendvInto is for a send: req must be a zero RecvRequest
// that is never copied, and done, when not nil, is called with id at the
// instant it completes. The one-segment landing area is the request's
// own, so the receive allocates nothing beyond req.
func IrecvMaskedInto(req *RecvRequest, g *Gate, p *sim.Proc, want, mask Tag, buf []byte, id uint32, done func(id uint32, err error)) {
	req.one[0] = buf
	IrecvvMaskedInto(req, g, p, want, mask, req.one[:], id, done)
}

// IrecvvMaskedInto is the vector form of IrecvMaskedInto; the request
// lands the payload in segs, which it keeps until it completes.
func IrecvvMaskedInto(req *RecvRequest, g *Gate, p *sim.Proc, want, mask Tag, segs [][]byte, id uint32, done func(id uint32, err error)) {
	req.id, req.hook, req.want, req.mask, req.iov = id, done, want, mask, segs
	g.eng.recordRecv(g, req)
	g.eng.chargeSubmit(p)
	g.postRecv(req)
}

// PostedSegs returns the segment list req was posted with by
// IrecvvMaskedInto, or nil for a one-buffer receive, which lands in the
// request's own segment. A caller that reuses its lists takes one back
// here once req has completed: the engine reads it until then.
func PostedSegs(req *RecvRequest) [][]byte {
	if len(req.iov) == 1 && &req.iov[0] == &req.one[0] {
		return nil
	}
	return req.iov
}

// PostRecvvMasked is IrecvvMasked for a caller in scheduler context; see
// PostSendv. With no submit overhead to wait out, a message already
// waiting unexpected is matched before PostRecvvMasked returns; done
// still follows by the payload copy cost, as completion does for a
// waiting process. req, a zero RecvRequest in the caller's storage, is
// posted once the overhead has elapsed and is Done from the instant done
// is called.
func (g *Gate) PostRecvvMasked(req *RecvRequest, want, mask Tag, segs [][]byte, done func(id uint32, err error)) {
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
	IrecvMaskedInto(req, g, p, want, mask, buf, 0, nil)
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

// flowSlots is how many flow tags a gate's flowTable holds inline. Tags
// are arbitrary 64-bit values (MAD-MPI packs the communicator id into
// the high bits), so a slot pairs a tag with its state rather than being
// indexed by it, and a lookup scans the slots in first-use order. Fourteen
// slots, with the held list and the one-shot lane beside them, fill the
// Gate's size class (TestEngineSizeClasses). A gate with more tags keeps
// the rest in a sorted slice it grows once and keeps. The benchmark's
// gates carry one tag (pingpong-64B, bulk-4MB-2rail, incast-16to1-lossy),
// 11 (ring-replay-1024) or 16 (multiflow-16x256B and Figures 3b/3d, whose
// last two spill); a collective's steps carry none (IsendvOnceInto).
const flowSlots = 14

// flowState is one flow tag's ordering state, both directions: the next
// sequence number the gate sends on it and the next it delivers.
type flowState struct {
	tag        Tag
	send, recv seqNum
}

// flowTable is a gate's per-flow state, with no map and no record per
// entry: the first flowSlots tags inline, the rest in more, sorted by
// tag. An entry is made zero on first use and lives as long as the gate.
// A pointer at returns is good until the next at of a tag the table has
// not seen, which may move more: a caller that delivers (whose
// completion hooks may send on a new tag) looks the flow up again.
type flowTable struct {
	slots [flowSlots]flowState
	n     int
	more  []flowState
}

// at returns the state of a flow, zero on first use.
func (t *flowTable) at(tag Tag) *flowState {
	for i := range t.slots[:t.n] {
		if t.slots[i].tag == tag {
			return &t.slots[i]
		}
	}
	if t.n < flowSlots {
		t.slots[t.n] = flowState{tag: tag}
		t.n++
		return &t.slots[t.n-1]
	}
	i, ok := slices.BinarySearchFunc(t.more, tag, func(f flowState, tag Tag) int { return cmp.Compare(f.tag, tag) })
	if !ok {
		t.more = slices.Insert(t.more, i, flowState{tag: tag})
	}
	return &t.more[i]
}

// onceLane numbers a gate's one-shot wrappers (IsendvOnceInto), both
// directions. next is the sender's next number. The receiver keeps a
// floor, below which every number has arrived, and the numbers above it
// that overtook a missing one, ascending: a number it holds either way
// is a duplicate. What it keeps is bounded by how far the lane's
// wrappers overtake each other, not by how many went by.
type onceLane struct {
	next  seqNum
	floor seqNum
	seen  []seqNum
}

// admit notes the arrival of one-shot number s and reports whether it is
// the first. Distances from the floor are taken modulo the number space,
// so the lane wraps as a flow's sequence does.
func (l *onceLane) admit(s seqNum) bool {
	d := s - l.floor
	if d >= 1<<31 {
		return false // below the floor
	}
	i := 0
	for i < len(l.seen) && l.seen[i]-l.floor < d {
		i++
	}
	if i < len(l.seen) && l.seen[i] == s {
		return false
	}
	if d > 0 {
		l.seen = slices.Insert(l.seen, i, s)
		return true
	}
	// s is the floor: raise it past s and past every number that had
	// already overtaken s.
	l.floor++
	k := 0
	for k < len(l.seen) && l.seen[k] == l.floor {
		l.floor++
		k++
	}
	l.seen = append(l.seen[:0], l.seen[k:]...)
	return true
}

// seqFor assigns the flow sequence number of one data wrapper. Unordered
// wrappers bypass the receiver's resequencing entirely, so they must not
// consume a slot in the flow order: an ordered send following an
// unordered one on the same flow would otherwise wait forever for a
// sequence number nobody delivers in order. A one-shot wrapper takes the
// gate's next one-shot number instead of a slot of its tag's.
func (g *Gate) seqFor(tag Tag, flags flags) seqNum {
	switch {
	case flags&flagUnordered != 0:
		return 0
	case flags&flagOnce != 0:
		g.once.next++
		return g.once.next - 1
	}
	f := g.flows.at(tag)
	f.send++
	return f.send - 1
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
