package simnet

import (
	"errors"
	"fmt"
	"unsafe"

	"nmad/internal/sim"
)

// TxKind selects the injection mechanism for a transaction.
type TxKind uint8

const (
	// TxEager is a PIO transaction: the host copies the payload into the
	// NIC (charged at PIOBandwidth) and the NIC frees as soon as the copy
	// completes; the wire drains concurrently.
	TxEager TxKind = iota
	// TxRdma is a DMA/RDMA transaction: setup is cheap, the payload
	// streams from user memory at wire speed, and the NIC's DMA engine
	// stays busy until the stream drains. The bytes make one copy, from
	// the sender's memory into the receiver's: when the DMA read ends the
	// receiving NIC's Placer writes them where they belong, and the
	// deliveries that follow carry only their length.
	TxRdma
)

func (k TxKind) String() string {
	switch k {
	case TxEager:
		return "eager"
	case TxRdma:
		return "rdma"
	default:
		return fmt.Sprintf("TxKind(%d)", uint8(k))
	}
}

// Tx is one NIC transaction as its caller describes it: bytes bound for a
// peer node, given either as a gather list or as a frame already filled.
// Submit copies what it needs into a flight, the one form inside the NIC,
// and keeps nothing of the Tx itself: a caller builds it on its stack.
type Tx struct {
	Dst  NodeID
	Kind TxKind
	// Segs is the gather list. A TxEager transaction snapshots the bytes
	// at Submit, so the caller may reuse its buffers once Submit returns.
	// A TxRdma transaction keeps the list by reference and reads it when
	// the NIC finishes, the instant its DMA read ends: keep the segments,
	// and the bytes they show, unchanged until OnSent.
	Segs [][]byte
	// Frame, when non-nil, replaces Segs: the bytes were flattened once
	// already and travel as they are. Submit takes over one reference —
	// a caller that wants the frame afterwards (to retransmit it) retains
	// it first; a Submit that fails has taken nothing. NSegs is the
	// gather shape the transaction is charged for, PerSegment and
	// MaxSegments alike: how many segments the sending host gathered the
	// frame from, 0 or 1 for a buffer that was contiguous to begin with.
	Frame *Frame
	NSegs int
	// Bounce is set only by a driver whose port gathers in software: the
	// gather list is longer than the NIC takes natively, so Submit
	// flattens it into a frame (unless Frame already holds the bytes),
	// charges it as one segment, and start adds the host's memcpy of the
	// bytes to the transaction's setup. The NIC is busy from the post.
	Bounce bool
	// Aux is 64 bits of out-of-band immediate data delivered with the
	// packet (models RDMA immediate data / MX match bits). The engine uses
	// it for rendezvous body identification.
	Aux uint64
	// OnSent, if non-nil, fires when the NIC finishes with the transaction
	// on the sending side.
	OnSent func()
}

// Delivery is an arrived transaction, handed to the receiving NIC's
// handler RecvOverhead after wire arrival. Len is its size in bytes.
//
// A TxEager delivery carries the bytes: Data is valid until the handler
// returns, as the NIC then drops the delivery's reference and the frame
// may be refilled by later traffic. A handler that parks Data, or any
// slice of it, retains Frame and releases it when the bytes have been
// consumed.
//
// A TxRdma delivery carries no Data and no Frame: its bytes were written
// into the receiver's memory by the NIC's Placer when the sender's DMA
// read ended, before this delivery and before the sender's OnSent.
type Delivery struct {
	Src   NodeID
	Kind  TxKind
	Aux   uint64
	Len   int
	Data  []byte // TxEager: the concatenated gather list, Frame.Bytes()
	Frame *Frame // TxEager only
}

// Placer is what a receiving NIC writes TxRdma bytes through: the host's
// registry of landing buffers. When a transaction's DMA read ends and the
// fabric is to deliver it, the NIC calls Place once per source segment, at
// its offset within the transaction, with src and aux as the sender gave
// them; b is the sender's memory, readable only during the call. Place
// copies b where (src, aux) says, or writes nothing when that names no
// buffer it still holds. A dropped transaction is never placed, a
// duplicated one once.
type Placer interface {
	Place(src NodeID, aux uint64, at int, b []byte)
}

// Errors returned by Submit.
var (
	ErrTooManySegments = errors.New("simnet: transaction exceeds the NIC gather list capacity")
	errOversized       = errors.New("simnet: transaction exceeds the NIC MTU")
	errSelfSend        = errors.New("simnet: transaction addressed to the sending node")
)

// NICStats counts traffic through one adapter.
type NICStats struct {
	TxPackets int
	TxBytes   int64
	TxSegs    int
	RxPackets int
	RxBytes   int64
	MaxQueue  int
}

// NIC is one node's adapter on one network. Transactions submitted while
// the NIC is busy queue FIFO. When the NIC transitions to idle with an
// empty queue it invokes the idle callback — the hook the NewMadeleine
// transfer layer uses to request the next optimized packet (paper §3.3:
// "the transfer layer ... requests from the upper layer a new optimized
// packet to be sent, as soon as a card becomes idle").
type NIC struct {
	node *Node
	net  *Network

	// busy marks a transaction in progress. The queued transactions are
	// a FIFO of flights, qhead to qtail, linked through flight.next;
	// queued counts them.
	busy         bool
	qhead, qtail *flight
	queued       int
	onIdle       func()
	onRecv       func(Delivery)
	place        Placer

	stats NICStats
}

func newNIC(node *Node, net *Network) *NIC {
	return &NIC{node: node, net: net}
}

// Profile returns the NIC's technology parameters.
func (n *NIC) Profile() Profile { return n.net.prof }

// Stats returns a snapshot of the traffic counters.
func (n *NIC) Stats() NICStats { return n.stats }

// Idle reports whether the NIC could start a new transaction immediately.
func (n *NIC) Idle() bool { return !n.busy }

// OnIdle registers the callback invoked each time the NIC drains.
func (n *NIC) OnIdle(fn func()) { n.onIdle = fn }

// OnRecv registers the delivery handler. Arrivals with no handler panic:
// a driver must be bound before traffic flows.
func (n *NIC) OnRecv(fn func(Delivery)) { n.onRecv = fn }

// OnPlace registers where TxRdma bytes arriving at this NIC land. With
// none registered they land nowhere; the deliveries still arrive.
func (n *NIC) OnPlace(p Placer) { n.place = p }

// flight is one transaction inside the NIC: queued, in progress, or sent
// and still owed to the receiver. An eager flight holds the transaction's
// reference to its frame, which becomes the reference of the scheduled
// delivery — dropped when the fabric loses the packet, doubled when it
// duplicates it. An RDMA flight holds its source — the caller's gather
// list by reference, or its frame — until its DMA read ends, when sent
// places the bytes and lets the source go; a dropped one lets it go at
// once, and its deliveries carry the length alone.
//
// Flights are recycled per fabric, as frames are, and their one event
// callback is bound once, so a recycled flight schedules its sender-side
// completion and its deliveries without allocating. pending counts the
// scheduled events that have yet to read the flight — the completion, and
// each delivery however late jitter or duplication makes it — and the last
// of them to fire returns it to the list. A flight fills its 96-byte size
// class (TestFlightSizeClass): the small fields share two words.
type flight struct {
	nic    *NIC     // the sending adapter
	segs   [][]byte // a TxRdma gather list, read by sent; nil when frame holds the bytes
	frame  *Frame
	size   int
	aux    uint64
	onSent func()
	next   *flight // the NIC's FIFO while queued, the fabric's free list while released
	fireFn func()  // fl.fire, bound when fl is first made

	dst     int32 // a NodeID
	nsegs   int32
	kind    TxKind
	isSent  bool  // the sender-side completion has run
	bounce  bool  // a software gather: start charges the host memcpy
	pending uint8 // at most three: the completion and two deliveries
}

var (
	cFlights     = sim.Counter("simnet.flights") // transactions submitted
	cFlightsMade = sim.Counter("simnet.flights_made")
)

// newFlight draws a zeroed flight from the fabric's free list.
func (f *Fabric) newFlight() *flight {
	fl := f.flights
	if fl == nil {
		return f.makeFlight()
	}
	f.flights, fl.next = fl.next, nil
	return fl
}

// makeFlight is newFlight's miss, so the list is empty: it carves a slab
// of flights, each with its callback bound, hands out the first and files
// the rest in order. A slab is twice as long as the last, from one up to
// as many as fit in 512 bytes (five), the largest size class whose
// pointer-holding objects carry no malloc header — the rule the engine's
// record lists follow (core/pool.go). It is kept out of line so that
// newFlight, a submit's every call, inlines.
//
//go:noinline
func (f *Fabric) makeFlight() *flight {
	n := min(max(2*f.flightSlab, 1), int(512/unsafe.Sizeof(flight{})))
	slab := make([]flight, n)
	for i := range slab {
		slab[i].fireFn = slab[i].fire
		if i > 0 {
			slab[i-1].next = &slab[i]
		}
	}
	f.flights, slab[0].next = slab[0].next, nil
	f.flightSlab = n
	f.world.Add(cFlightsMade, n)
	return &slab[0]
}

// done retires one scheduled event of the flight; the last one clears it
// and files it back.
func (fl *flight) done() {
	if fl.pending == 0 {
		panic("simnet: release of a released transaction")
	}
	fl.pending--
	if fl.pending == 0 {
		f := fl.nic.net.fabric
		*fl = flight{next: f.flights, fireFn: fl.fireFn}
		f.flights = fl
	}
}

// Submit validates and enqueues a transaction, starting it at once if the
// NIC is idle.
func (n *NIC) Submit(tx *Tx) error {
	p := &n.net.prof
	nsegs, size := len(tx.Segs), 0
	if tx.Frame != nil {
		nsegs, size = max(tx.NSegs, 1), len(tx.Frame.buf)
	} else {
		for _, s := range tx.Segs {
			size += len(s)
		}
	}
	if tx.Bounce {
		nsegs = 1
	}
	if nsegs > p.MaxSegments {
		return fmt.Errorf("%w: %d segments > %d on %s", ErrTooManySegments, nsegs, p.MaxSegments, p.Name)
	}
	if tx.Dst == n.node.ID {
		return errSelfSend
	}
	if int(tx.Dst) < 0 || int(tx.Dst) >= len(n.net.nics) {
		return fmt.Errorf("simnet: no node %d on %s", tx.Dst, p.Name)
	}
	if p.MTU > 0 && size > p.MTU {
		return fmt.Errorf("%w: %d bytes > MTU %d on %s", errOversized, size, p.MTU, p.Name)
	}
	n.net.fabric.world.Count(cFlights)
	fl := n.net.fabric.newFlight()
	fl.nic, fl.dst, fl.kind, fl.nsegs, fl.size, fl.aux, fl.onSent = n, int32(tx.Dst), tx.Kind, int32(nsegs), size, tx.Aux, tx.OnSent
	fl.bounce = tx.Bounce
	switch {
	case tx.Frame != nil:
		fl.frame = tx.Frame
	case tx.Kind == TxRdma && !tx.Bounce:
		// The DMA read happens when the transaction ends (sent): keep the
		// list, never the bytes.
		fl.segs = tx.Segs
	default:
		// Snapshot now, not at transmission start: a queued eager
		// transaction must not read the caller's buffers later (the
		// documented Segs contract). A bounced RDMA list is flattened
		// here too: the bounce buffer is what the DMA engine reads.
		fl.frame = n.net.fabric.frames.New(tx.Segs)
	}
	if depth := n.queued + 1; depth > n.stats.MaxQueue {
		n.stats.MaxQueue = depth
	}
	if !n.busy {
		n.start(fl)
		return nil
	}
	if n.qtail == nil {
		n.qhead = fl
	} else {
		n.qtail.next = fl
	}
	n.qtail = fl
	n.queued++
	return nil
}

// next pops the queue head.
func (n *NIC) next() *flight {
	fl := n.qhead
	if n.qhead, fl.next = fl.next, nil; n.qhead == nil {
		n.qtail = nil
	}
	n.queued--
	return fl
}

// start runs one transaction's timing model and schedules its events:
// the sender-side completion first, then what the fabric delivers.
func (n *NIC) start(fl *flight) {
	n.busy = true

	p := &n.net.prof
	w := n.net.fabric.world
	size, dst := fl.size, NodeID(fl.dst)

	now := w.Now()
	setup := p.SendOverhead + p.Gap + sim.Time(fl.nsegs)*p.PerSegment
	if fl.bounce {
		setup += n.node.CopyCost(size)
	}
	var arrival, nicFree sim.Time
	switch fl.kind {
	case TxEager:
		// Cut-through PIO: the host copies the payload into the NIC while
		// the wire drains concurrently; the packet cannot finish before
		// either stage does. The NIC frees when the host copy lands.
		nicDone := now + setup + sim.ByteTime(size, p.PIOBandwidth)
		arrival = n.net.reserveWire(n.node.ID, dst, size+p.HeaderBytes, now+setup, nicDone)
		nicFree = nicDone
	case TxRdma:
		// DMA setup is constant; the DMA engine then occupies the NIC at
		// wire pace until the body has streamed out.
		arrival = n.net.reserveWire(n.node.ID, dst, size+p.HeaderBytes, now+setup, 0)
		nicFree = arrival - p.Latency // drain instant on the sender side
	default:
		panic("simnet: unknown TxKind " + fl.kind.String())
	}

	n.stats.TxPackets++
	n.stats.TxBytes += int64(size)
	n.stats.TxSegs += int(fl.nsegs)

	// The completion is the flight's first event to fire (fire): the NIC
	// frees no later than the packet arrives, and it is scheduled first.
	fl.pending = 1
	w.At(nicFree, fl.fireFn)

	// Receiver-side delivery, through the fault injector when one is
	// installed: a drop schedules nothing (the wire time was already
	// paid above), reorder jitter delays this delivery only, and a
	// duplicate schedules a second delivery of the same bits. An eager
	// flight's frame reference goes with its deliveries; an RDMA flight
	// keeps its source until sent, which places the bytes once however
	// many deliveries follow.
	v := verdict{deliver: true}
	if fs := n.net.faults; fs != nil {
		v = fs.decide(arrival, p.Latency)
	}
	if !v.deliver {
		if fl.frame != nil {
			fl.frame.Release()
			fl.frame = nil
		}
		fl.segs = nil // nothing for sent to place
		return
	}
	fl.deliverAt(arrival + v.jitter + p.RecvOverhead)
	if v.duplicate {
		if fl.kind == TxEager {
			fl.frame.Retain()
		}
		fl.deliverAt(arrival + v.jitter + v.dupDelay + p.RecvOverhead)
	}
}

// fire is the flight's one event callback: the sender-side completion the
// first time, a delivery every time after.
func (fl *flight) fire() {
	if fl.isSent {
		fl.deliver()
		return
	}
	fl.isSent = true
	fl.sent()
}

// sent is the sender-side completion: end an RDMA flight's DMA read, free
// the NIC, then refill.
func (fl *flight) sent() {
	n, onSent := fl.nic, fl.onSent
	if fl.kind == TxRdma {
		fl.dmaRead()
	}
	fl.done()
	if onSent != nil {
		onSent()
	}
	if n.qhead != nil {
		n.start(n.next())
		return
	}
	n.busy = false
	if n.onIdle != nil {
		n.onIdle()
	}
}

// dmaRead ends an RDMA flight's DMA read: the bytes go straight into the
// receiver's memory, once, and the flight lets go of its source. A flight
// the fabric dropped has none left (start).
func (fl *flight) dmaRead() {
	if pl := fl.nic.net.nics[fl.dst].place; pl != nil {
		src := fl.nic.node.ID
		placed := 0
		if fl.frame != nil {
			pl.Place(src, fl.aux, 0, fl.frame.buf)
			placed = len(fl.frame.buf)
		}
		at := 0
		for _, s := range fl.segs {
			pl.Place(src, fl.aux, at, s)
			at += len(s)
		}
		fl.nic.net.fabric.world.Add(cBytesCopied, placed+at)
	}
	if fl.frame != nil {
		fl.frame.Release()
		fl.frame = nil
	}
	fl.segs = nil
}

// deliverAt schedules one delivery of the flight.
func (fl *flight) deliverAt(t sim.Time) {
	fl.pending++
	fl.nic.net.fabric.world.At(t, fl.fireFn)
}

// deliver hands one arrived transaction to the peer's receive handler
// and then drops an eager delivery's reference to the frame; an RDMA
// flight let go of its frame in sent. The flight is retired first: a
// handler that answers at once reuses it.
func (fl *flight) deliver() {
	n, fr := fl.nic.net.nics[fl.dst], fl.frame
	d := Delivery{Src: fl.nic.node.ID, Kind: fl.kind, Aux: fl.aux, Len: fl.size}
	if fr != nil {
		d.Data, d.Frame = fr.buf, fr
	}
	fl.done()
	n.stats.RxPackets++
	n.stats.RxBytes += int64(d.Len)
	if n.onRecv == nil {
		panic(fmt.Sprintf("simnet: delivery on %s node %d with no receive handler", n.net.prof.Name, n.node.ID))
	}
	n.onRecv(d)
	if fr != nil {
		fr.Release()
	}
}
