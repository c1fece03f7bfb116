package core

import (
	"nmad/internal/sim"
	"nmad/internal/simnet"
)

// Free-list recycling for the engine hot path. Every eager send allocates
// a packet wrapper, every elected train an output, every out-of-order or
// unexpected arrival an inEntry, every eager receive a deferred
// completion (recvDone), every rendezvous a transaction record on each
// side (rdvSend, rdvRecv) and a chain per RDMA rail (rdmaChain), every
// reliable train a linkFrame, and every blocking Send, Ssend or Recv the
// request its caller never sees (SendRequest, RecvRequest) — at replay
// scale these dominate the engine's allocation profile. The engine
// recycles them through plain per-engine free lists rather than
// sync.Pool: the deterministic packages must not couple behaviour (or
// even allocation addresses feeding map iteration) to GC timing, and a
// World is single-threaded by construction so an unsynchronized slice is
// all the machinery needed.
//
// Ownership rules, enforced by the call sites:
//
//   - A wrapper is freed exactly once, by whoever learns the NIC (or the
//     conversion that replaced it) is done with it: the send-completion
//     callback for elected entries, convertToRTS for the data wrapper a
//     rendezvous request replaces.
//   - A freed wrapper's iov backing array is kept for reuse, so whoever
//     transfers the payload out must leave the wrapper another array:
//     convertToRTS swaps it with the rendezvous record's old one
//     (newRdvSend), so neither side regrows one.
//   - A blocking call's request is taken at entry and filed back once
//     the call has its result, so it is always complete by then, and a
//     completed request is touched by no engine record again: a send
//     completes when its last unit (wrapper, body chunk, sync ack, the
//     done entry of a reliable rendezvous) retires, and each unit
//     retires once; a receive completes after its match has left the
//     posted list, the grant queue and the live rendezvous
//     transactions. A call that never gets its result (its process
//     ends parked in Wait) leaves its request off the list. The request
//     of a nonblocking or Post* call is its caller's — returned to it, or
//     in storage it passed (a MAD-MPI handle, a replay or collective
//     slab) — and the engine never recycles it.
//   - Strategies never see wrappers after election (the spileak analyzer
//     forbids retaining SPI views), so recycling cannot dangle into sched.
//   - A record an event or a NIC completion refers to returns to its list
//     only when nothing pending refers to it. A timer cannot be
//     cancelled, so the record counts what is pending on it and is filed
//     back once it is retired and the count is zero: a linkFrame once
//     acked with no transmission in flight and no retransmit check armed
//     (linkFrame.sending, checks), an rdvSend once retired with no chunk
//     of its original stream unsent and no RDMA chain — reissues
//     included — streaming (rdvSend.left, rdvSend.chains). An rdvRecv
//     needs no count: under Options.Reliability exactly one body watch
//     is pending from the grant on, and the watch that finds the record
//     landed files it back; without reliability onBody does. All of a
//     record's timers wait one delay and fire in the order armed, so
//     counts also replace the attempt or generation stamp a closure per
//     timer used to carry: a delayed ack that fires while a later one is
//     pending is void, as is a retransmit check armed before the frame's
//     latest retransmission (linkFrame.stale). The callbacks themselves
//     are method values bound when the record is first made (or first
//     needs them) and kept across recycling.
//
// Wire frames (simnet.Frame) are the one pooled object shared with the
// layers below: the engine draws them from the fabric's list, fills each
// once — the flatten of an elected train or a link control entry is the
// only copy the bytes see below the engine — and hands them to the
// driver. An RDMA body chunk, original or reissue, takes none: the NIC
// reads the caller's memory when the DMA read ends and places the bytes
// (landings.Place). They are reference-counted, and a frame returns to
// the list when the last of these holders lets go:
//
//   - a transaction queued at the NIC, and each eager delivery the fabric
//     has scheduled for it (none for a dropped packet, two for a
//     duplicated one); the receive handler borrows that last reference,
//     so what it reads synchronously — consume, onBody and linkAccept all
//     copy or dispatch before returning — needs none of its own;
//   - an unacknowledged link frame (linkFrame.frame), from linkSend until
//     the cumulative ack that retires it: retransmissions re-submit the
//     very frame, retained once more for the NIC each time;
//   - a parked inEntry — held for resequencing or waiting unexpected —
//     whose payload is a slice of the frame it arrived in: newInEntry
//     retains, freeInEntry releases. An entry re-parked out of the
//     resequencing drain keeps following its own frame, not the frame of
//     the delivery that let it through.
//
// Options.NoRecycle turns the free lists off for A/B testing — the
// engine's frames then belong to no list — and the timeline must be
// byte-identical either way (see the pooling property test in package
// replay).

// freeList is the one free list: a stack of recycled *T. get pops one, or
// allocates a zero T when the stack is empty and counts the miss; put
// takes back a T its caller has reset.
type freeList[T any] []*T

// One miss counter per free list: the objects a run had to make.
var (
	cMissPackets   = sim.Counter("core.misses.packets")
	cMissOutputs   = sim.Counter("core.misses.outputs")
	cMissInEntries = sim.Counter("core.misses.in_entries")
	cMissRecvDones = sim.Counter("core.misses.recv_dones")
	cMissSends     = sim.Counter("core.misses.send_requests")
	cMissRecvs     = sim.Counter("core.misses.recv_requests")
	cMissRdvSends  = sim.Counter("core.misses.rdv_sends")
	cMissRdvRecvs  = sim.Counter("core.misses.rdv_recvs")
	cMissChains    = sim.Counter("core.misses.rdma_chains")
	cMissLinks     = sim.Counter("core.misses.link_frames")
)

func (l *freeList[T]) get(w *sim.World, miss sim.CounterID) *T {
	n := len(*l) - 1
	if n < 0 {
		w.Count(miss)
		return new(T)
	}
	v := (*l)[n]
	(*l)[n] = nil
	*l = (*l)[:n]
	return v
}

func (l *freeList[T]) put(v *T) { *l = append(*l, v) }

// newPacket is the one place a wrapper is filled: a wrapper for gate g
// that will travel under header h, pinned to driver (or anyDriver) and
// completing req. It is recycled when the free list has one; iov's
// segment headers are copied into the wrapper-owned backing array (kept
// across recycles), never aliasing the caller's slice.
func (e *Engine) newPacket(g *Gate, h header, driver int, iov iovec, req *SendRequest) *packet {
	pw := e.freePkts.get(e.world, cMissPackets)
	pw.gate = g
	pw.kind, pw.flags, pw.tag, pw.seq, pw.size, pw.aux = h.kind, h.flags, h.tag, h.seq, h.length, h.aux
	pw.iov = append(pw.iov, iov...)
	pw.driver = driver
	pw.req = req
	return pw
}

// freePacket recycles a wrapper the engine is completely done with. The
// payload segment headers are dropped (they point into user buffers) but
// the iov backing array is kept, so steady-state sends stop allocating
// the per-wrapper iovec.
func (e *Engine) freePacket(pw *packet) {
	if e.opts.NoRecycle {
		return
	}
	clear(pw.iov)
	*pw = packet{iov: pw.iov[:0]}
	e.freePkts.put(pw)
}

// newOutput returns an empty output train, reusing a recycled one's
// entries backing array and bound callbacks.
func (e *Engine) newOutput() *output {
	out := e.freeOuts.get(e.world, cMissOutputs)
	if out.onSent == nil { // fresh, not recycled
		out.onReady, out.onSent = out.ready, out.sent
	}
	return out
}

// freeOutput recycles an output whose entries have all been freed (or
// were never filled).
func (e *Engine) freeOutput(out *output) {
	if e.opts.NoRecycle {
		return
	}
	clear(out.entries)
	*out = output{entries: out.entries[:0], onReady: out.onReady, onSent: out.onSent}
	e.freeOuts.put(out)
}

// newInEntry returns a filled receive-side entry (resequencing hold or
// unexpected arrival), recycled when possible. The entry takes its own
// reference to fr, the frame payload is a slice of.
func (e *Engine) newInEntry(h header, payload []byte, fr *simnet.Frame) *inEntry {
	ent := e.freeEnts.get(e.world, cMissInEntries)
	fr.Retain()
	*ent = inEntry{h: h, payload: payload, frame: fr}
	return ent
}

// freeInEntry drops the frame reference of an entry whose payload has
// been consumed and recycles the entry (the copy into the user buffer
// happens synchronously in consume, so the entry is dead the moment the
// match returns).
func (e *Engine) freeInEntry(ent *inEntry) {
	ent.frame.Release()
	if e.opts.NoRecycle {
		return
	}
	*ent = inEntry{}
	e.freeEnts.put(ent)
}

// recvDone is the deferred completion of one eager receive: the request
// completes when the payload copy into the user buffer has been paid for.
// The engine owns the record from completeAfter until its event fires,
// which takes the request out and files the record back before
// completing; fire is d.run, bound when the record is first made, so the
// event captures nothing per message.
type recvDone struct {
	eng  *Engine
	req  *RecvRequest
	err  error
	fire func()
}

// completeAfter completes r with err once delay has elapsed.
func (e *Engine) completeAfter(delay sim.Time, r *RecvRequest, err error) {
	d := e.freeDone.get(e.world, cMissRecvDones)
	if d.fire == nil { // fresh, not recycled
		d.eng, d.fire = e, d.run
	}
	d.req, d.err = r, err
	e.world.After(delay, d.fire)
}

func (d *recvDone) run() {
	r, err := d.req, d.err
	d.req, d.err = nil, nil
	if !d.eng.opts.NoRecycle {
		d.eng.freeDone.put(d)
	}
	r.complete(err)
}

// freeSendRequest files back the completed request of a blocking send
// (see the ownership rules above); freeRecvRequest does the same for a
// receive.
func (e *Engine) freeSendRequest(r *SendRequest) {
	if e.opts.NoRecycle {
		return
	}
	*r = SendRequest{}
	e.freeSends.put(r)
}

func (e *Engine) freeRecvRequest(r *RecvRequest) {
	if e.opts.NoRecycle {
		return
	}
	*r = RecvRequest{}
	e.freeRecvs.put(r)
}

// encodeOutput turns an output train into the NIC gather list: one
// segment per entry header, one per payload segment, preceded by the link
// entry when the reliability layer framed the train (electOutput reserved
// the slot). Headers pack into the engine's scratch byte array and the
// list itself reuses the engine's scratch segment slice — both are dead
// the moment the list has been flattened into its wire frame, which the
// send path does before anything else can encode.
//
// The header array is pre-sized from the output's running wire totals
// (maintained by output.add at election time), so the appends below
// never reallocate — segment pointers into hdrs stay valid.
func (e *Engine) encodeOutput(out *output) [][]byte {
	need := headerSize * (len(out.entries) + 1)
	hdrs := e.encHdrs[:0]
	if cap(hdrs) < need {
		hdrs = make([]byte, 0, need)
	}
	segs := e.encSegs[:0]
	if cap(segs) < out.segs+1 {
		segs = make([][]byte, 0, out.segs+1)
	}
	if fr := out.link; fr != nil {
		hdrs = appendLinkHeader(hdrs, linkFrameTag, fr.seq, out.gate.lrx.floor)
		segs = append(segs, hdrs[:headerSize])
	}
	for _, pw := range out.entries {
		start := len(hdrs)
		hdrs = encodeHeader(hdrs, pw.header())
		segs = append(segs, hdrs[start:start+headerSize])
		if pw.kind.hasPayload() {
			segs = pw.iov.appendSegs(segs)
		}
	}
	e.encHdrs = hdrs
	e.encSegs = segs
	return segs
}
