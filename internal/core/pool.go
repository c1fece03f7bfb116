package core

import (
	"unsafe"

	"nmad/internal/sim"
	"nmad/internal/simnet"
)

// Free-list recycling for the engine hot path. Every eager send allocates
// a packet wrapper, every elected train an output, every out-of-order or
// unexpected arrival an inEntry, every rendezvous a transaction record on
// each side (rdvSend, rdvRecv) and a chain per RDMA rail (rdmaChain),
// every reliable train a linkFrame, and every blocking Send, Ssend or
// Recv the request its caller never sees (SendRequest, RecvRequest) — at
// replay scale these dominate the engine's allocation profile. Each is
// one fixed-size record: a wrapper's first payload segment is a field of
// its own. A deferred step is no record at all but a value in the
// engine's timer queue (timer.go). The engine recycles them through plain
// per-engine free lists rather than sync.Pool: the deterministic packages
// must not couple behaviour (or even allocation addresses feeding map
// iteration) to GC timing, and a World is single-threaded by construction
// so an unsynchronized list is all the machinery needed.
//
// The seven engine record lists are linked through the records
// (freeList), so a list allocates nothing of its own, and a miss carves a
// slab of records (Bonwick's slab allocator, USENIX Summer 1994) whose
// length doubles from one: a cold engine that needs one record makes
// one, and one that needs seventeen makes them in six allocations. The
// two request lists stay stacks (reqStack): a link word would push
// SendRequest and RecvRequest out of their 64- and 128-byte size classes
// (TestRequestSizeClasses), and every request a caller holds would pay it.
//
// Ownership rules, enforced by the call sites:
//
//   - A wrapper is freed exactly once, by whoever learns the NIC (or the
//     conversion that replaced it) is done with it: the send-completion
//     callback for elected entries, convertToRTS for the data wrapper a
//     rendezvous request replaces.
//   - A freed wrapper's iov backing — its inline seg, or an array of its
//     own once a longer iovec outgrew that — is kept for reuse, so
//     whoever keeps the payload beyond the wrapper copies the segment
//     headers out: convertToRTS copies them into the rendezvous record's
//     own backing (newRdvSend), never taking the wrapper's.
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
//     slab) — and the engine never recycles it. MAD-MPI recycles its own
//     at Wait, which this rule makes safe: it zeroes a waited request and
//     posts it again. A request the engine returns (Isend, Irecv and
//     their vector, masked and synchronous forms) is carved from its
//     gate's current 512-byte slab (reqSlabs) and never recycled, so no
//     later call's request aliases one a caller still holds, and a held
//     request keeps at most its slab's 512 bytes alive.
//   - Strategies never see wrappers after election (the spileak analyzer
//     forbids retaining SPI views), so recycling cannot dangle into sched.
//   - A record a NIC completion refers to returns to its list only when
//     no transmission of it is in flight, and a record a timer entry
//     refers to only when that entry can no longer act on it. An entry
//     cannot be cancelled. A linkFrame is filed back once acked with no
//     transmission in flight (linkFrame.sending): its pending retransmit
//     check is stamped with the frame's generation, which the recycling
//     advances, so the check finds the record reused or listed and is
//     void. An rdvSend is filed back once retired with no chunk of its
//     original stream unsent and no RDMA chain — reissues included —
//     streaming (rdvSend.left, rdvSend.chains). An rdvRecv needs no
//     count: under Options.Reliability exactly one body watch is pending
//     from the grant on, and the watch that finds the record landed files
//     it back; without reliability onBody does. The NIC completions are
//     method values bound when the record is first made and kept across
//     recycling.
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
// The tests' drain audit (selfcheck_test.go) holds every record a list
// made (core.misses.*, carved spares included) to be on it or held by
// engine state; put zeroes what it takes back, so a record filed too
// early poisons its holder. That the lists recycle at all is pinned by
// work.golden's misses rows.

// freeList is the free list of one engine record type T, linked through
// the records: head is the most recently filed one, and each listed
// record's link field (listLink, embedded in T) names the next. get takes
// the head, or carves a slab when the list is empty; put files back a T
// its caller has reset.
type freeList[T any, P interface {
	*T
	freeNext() **T
}] struct {
	head *T
	slab int // records in the last slab carved
}

// listLink is a record's free-list link, nil while the record is in use.
type listLink[T any] struct{ next *T }

func (l *listLink[T]) freeNext() **T { return &l.next }

// slabBytes bounds a slab: 512 B is the largest size class whose
// pointer-holding objects carry no 8-byte malloc header, so a carved
// record costs no more than one made alone.
const slabBytes = 512

// One miss counter per free list: the records a run had to make.
var (
	cMissPackets   = sim.Counter("core.misses.packets")
	cMissOutputs   = sim.Counter("core.misses.outputs")
	cMissInEntries = sim.Counter("core.misses.in_entries")
	cMissSends     = sim.Counter("core.misses.send_requests")
	cMissRecvs     = sim.Counter("core.misses.recv_requests")
	cMissRdvSends  = sim.Counter("core.misses.rdv_sends")
	cMissRdvRecvs  = sim.Counter("core.misses.rdv_recvs")
	cMissChains    = sim.Counter("core.misses.rdma_chains")
	cMissLinks     = sim.Counter("core.misses.link_frames")
)

func (l *freeList[T, P]) get(w *sim.World, miss sim.CounterID) *T {
	v := l.head
	if v == nil {
		v = l.carve(w, miss)
	}
	next := P(v).freeNext()
	l.head, *next = *next, nil
	return v
}

func (l *freeList[T, P]) put(v *T) {
	*P(v).freeNext() = l.head
	l.head = v
}

// carve is get's miss: a slab of zero records twice as long as the last
// (one at first), up to as many as fit in slabBytes, linked in order and
// returned by its first record for get to take; the rest become the
// list. Every record made counts as a miss.
func (l *freeList[T, P]) carve(w *sim.World, miss sim.CounterID) *T {
	var zero T
	n := min(max(2*l.slab, 1), max(slabBytes/int(unsafe.Sizeof(zero)), 1))
	slab := make([]T, n)
	for i := range n - 1 {
		*P(&slab[i]).freeNext() = &slab[i+1]
	}
	l.slab = n
	w.Add(miss, n)
	return &slab[0]
}

// reqStack is the free list of a blocking call's requests: a stack of
// recycled *T, as the requests have no room for a link (see above). get
// pops one, or allocates a zero T when the stack is empty and counts the
// miss; put takes back a T its caller has reset.
type reqStack[T any] []*T

func (l *reqStack[T]) get(w *sim.World, miss sim.CounterID) *T {
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

func (l *reqStack[T]) put(v *T) { *l = append(*l, v) }

// Requests per slab: as many as fit in slabBytes, so a carved request
// costs what one allocated alone would (64 and 128 bytes).
const (
	sendsPerSlab = slabBytes / unsafe.Sizeof(SendRequest{})
	recvsPerSlab = slabBytes / unsafe.Sizeof(RecvRequest{})
)

// reqSlabs carves the requests a gate's nonblocking calls return: one
// slab of each kind is current, handed out in order, and replaced by a
// fresh one once used up. A request is never given back, so a slab is
// garbage once its caller drops every request carved from it.
type reqSlabs struct {
	sends              *[sendsPerSlab]SendRequest
	recvs              *[recvsPerSlab]RecvRequest
	sendLeft, recvLeft uint8 // requests not yet handed out of the current slabs
}

func (s *reqSlabs) send() *SendRequest {
	if s.sendLeft == 0 {
		s.sends, s.sendLeft = new([sendsPerSlab]SendRequest), uint8(sendsPerSlab)
	}
	r := &s.sends[len(s.sends)-int(s.sendLeft)]
	s.sendLeft--
	return r
}

func (s *reqSlabs) recv() *RecvRequest {
	if s.recvLeft == 0 {
		s.recvs, s.recvLeft = new([recvsPerSlab]RecvRequest), uint8(recvsPerSlab)
	}
	r := &s.recvs[len(s.recvs)-int(s.recvLeft)]
	s.recvLeft--
	return r
}

// fifo is a queue of values served oldest first: items[head:] are
// queued. It holds the engine's waiting posts (see post) and the run of
// its timer queue. pop zeroes the slot it takes (swapping in the zero
// result) and compacts the dead prefix away once it outgrows the tail, so
// the backing array serves for good. A queue popped empty, the common
// case of a timer run, only rewinds: its slots are zero already, and a
// copy and clear there would cost runtime calls on every deferred step.
type fifo[T any] struct {
	items []T
	head  int
}

func (q *fifo[T]) push(v T) { q.items = append(q.items, v) }

func (q *fifo[T]) pop() (v T) {
	v, q.items[q.head] = q.items[q.head], v
	if q.head++; q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	} else if q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[q.head:]) // [n, head) was zeroed by its pops
		q.items, q.head = q.items[:n], 0
	}
	return v
}

// newPacket is the one place a wrapper is filled: a wrapper for gate g
// that will travel under header h, pinned to driver (or anyDriver) and
// completing req. It is recycled when the free list has one; iov's
// segment headers are copied into the wrapper-owned backing array (kept
// across recycles), never aliasing the caller's slice. A fresh wrapper's
// backing is its own seg field, so a one-segment payload costs no second
// object; a longer iovec moves it to an array of its own.
func (e *Engine) newPacket(g *Gate, h header, driver int, iov iovec, req *SendRequest) *packet {
	pw := e.freePkts.get(e.world, cMissPackets)
	if pw.iov == nil { // fresh, not recycled
		pw.iov = pw.seg[:0]
	}
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
	clear(pw.iov)
	*pw = packet{iov: pw.iov[:0]}
	e.freePkts.put(pw)
}

// newOutput returns an empty output train, reusing a recycled one's
// entries backing array and bound NIC completion.
func (e *Engine) newOutput() *output {
	out := e.freeOuts.get(e.world, cMissOutputs)
	if out.onSent == nil { // fresh, not recycled
		out.onSent = out.sent
	}
	return out
}

// freeOutput recycles an output whose entries have all been freed (or
// were never filled).
func (e *Engine) freeOutput(out *output) {
	clear(out.entries)
	*out = output{entries: out.entries[:0], onSent: out.onSent}
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
	*ent = inEntry{}
	e.freeEnts.put(ent)
}

// freeSendRequest files back the completed request of a blocking send
// (see the ownership rules above); freeRecvRequest does the same for a
// receive.
func (e *Engine) freeSendRequest(r *SendRequest) {
	*r = SendRequest{}
	e.freeSends.put(r)
}

func (e *Engine) freeRecvRequest(r *RecvRequest) {
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
