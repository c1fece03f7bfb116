package simnet

import (
	"errors"
	"fmt"

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
	// stays busy until the stream drains. Receivers get the payload
	// without a host copy (zero-copy placement).
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
// peer node, given either as a gather list for the NIC to snapshot or as
// a frame already filled. Submit copies what it needs into a flight, the
// one form inside the NIC, and keeps nothing of the Tx: a caller builds
// it on its stack.
type Tx struct {
	Dst  NodeID
	Kind TxKind
	// Segs is the gather list. The NIC snapshots the bytes at Submit time,
	// so callers may reuse their buffers once Submit returns.
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
	// Aux is 64 bits of out-of-band immediate data delivered with the
	// packet (models RDMA immediate data / MX match bits). The engine uses
	// it for rendezvous body identification.
	Aux uint64
	// OnSent, if non-nil, fires when the NIC finishes with the transaction
	// on the sending side.
	OnSent func()
}

// Delivery is an arrived transaction, handed to the receiving NIC's
// handler RecvOverhead after wire arrival. Data is valid until the
// handler returns: the NIC then drops the delivery's reference and the
// frame may be refilled by later traffic. A handler that parks Data, or
// any slice of it, retains Frame and releases it when the bytes have
// been consumed.
type Delivery struct {
	Src   NodeID
	Kind  TxKind
	Aux   uint64
	Data  []byte // concatenated gather list: Frame.Bytes()
	Frame *Frame
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
	world *sim.World
	node  *Node
	net   *Network

	busy   bool
	queue  []*flight // FIFO behind the transaction in progress; qhead is its front
	qhead  int
	onIdle func()
	onRecv func(Delivery)

	stats NICStats
}

func newNIC(w *sim.World, node *Node, net *Network) *NIC {
	return &NIC{world: w, node: node, net: net}
}

// Node returns the host this NIC is plugged into.
func (n *NIC) Node() *Node { return n.node }

// Network returns the network this NIC is attached to.
func (n *NIC) Network() *Network { return n.net }

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

// flight is one transaction inside the NIC: queued, in progress, or sent
// and still owed to the receiver. It holds the transaction's reference to
// its frame, which becomes the reference of the scheduled delivery —
// dropped when the fabric loses the packet, doubled when it duplicates
// it. Flights are recycled per fabric, as frames are, and their two
// event callbacks are bound once, so a recycled flight schedules its
// sender-side completion and its deliveries without allocating. pending
// counts the scheduled events that have yet to read the flight — the
// completion, and each delivery however late jitter or duplication
// makes it — and the last of them to fire returns it to the list.
type flight struct {
	nic    *NIC // the sending adapter
	dst    NodeID
	kind   TxKind
	nsegs  int
	aux    uint64
	frame  *Frame
	onSent func()

	pending int
	next    *flight // free-list link while released

	sentFn, deliverFn func() // fl.sent and fl.deliver, bound when fl is first made
}

// newFlight draws a zeroed flight from the fabric's free list.
func (f *Fabric) newFlight() *flight {
	fl := f.flights
	if fl == nil {
		fl = new(flight)
		fl.sentFn, fl.deliverFn = fl.sent, fl.deliver
		return fl
	}
	f.flights, fl.next = fl.next, nil
	return fl
}

// done retires one scheduled event of the flight; the last one clears it
// and files it back.
func (fl *flight) done() {
	if fl.pending <= 0 {
		panic("simnet: release of a released transaction")
	}
	fl.pending--
	if fl.pending == 0 {
		f := fl.nic.net.fabric
		*fl = flight{next: f.flights, sentFn: fl.sentFn, deliverFn: fl.deliverFn}
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
	fl := n.net.fabric.newFlight()
	fl.nic, fl.dst, fl.kind, fl.nsegs, fl.aux, fl.onSent = n, tx.Dst, tx.Kind, nsegs, tx.Aux, tx.OnSent
	if fl.frame = tx.Frame; fl.frame == nil {
		// Snapshot now, not at transmission start: a queued transaction
		// must not read the caller's buffers later (the documented Segs
		// contract).
		fl.frame = n.net.fabric.frames.New(tx.Segs)
	}
	if depth := len(n.queue) - n.qhead + 1; depth > n.stats.MaxQueue {
		n.stats.MaxQueue = depth
	}
	if n.busy {
		n.queue = append(n.queue, fl)
		return nil
	}
	n.start(fl)
	return nil
}

// next pops the queue head; the backing array is reused once it drains.
func (n *NIC) next() *flight {
	fl := n.queue[n.qhead]
	n.queue[n.qhead] = nil
	n.qhead++
	if n.qhead == len(n.queue) {
		n.queue, n.qhead = n.queue[:0], 0
	}
	return fl
}

// start runs one transaction's timing model and schedules its events:
// the sender-side completion first, then what the fabric delivers.
func (n *NIC) start(fl *flight) {
	n.busy = true

	p := &n.net.prof
	size := len(fl.frame.buf)

	now := n.world.Now()
	setup := p.SendOverhead + p.Gap + sim.Time(fl.nsegs)*p.PerSegment
	var arrival, nicFree sim.Time
	switch fl.kind {
	case TxEager:
		// Cut-through PIO: the host copies the payload into the NIC while
		// the wire drains concurrently; the packet cannot finish before
		// either stage does. The NIC frees when the host copy lands.
		nicDone := now + setup + sim.ByteTime(size, p.PIOBandwidth)
		arrival = n.net.reserveWire(n.node.ID, fl.dst, size+p.HeaderBytes, now+setup, nicDone)
		nicFree = nicDone
	case TxRdma:
		// DMA setup is constant; the DMA engine then occupies the NIC at
		// wire pace until the body has streamed out.
		arrival = n.net.reserveWire(n.node.ID, fl.dst, size+p.HeaderBytes, now+setup, 0)
		nicFree = arrival - p.Latency // drain instant on the sender side
	default:
		panic("simnet: unknown TxKind " + fl.kind.String())
	}

	n.stats.TxPackets++
	n.stats.TxBytes += int64(size)
	n.stats.TxSegs += fl.nsegs

	fl.pending = 1
	n.world.At(nicFree, fl.sentFn)

	// Receiver-side delivery, through the fault injector when one is
	// installed: a drop schedules nothing (the wire time was already
	// paid above), reorder jitter delays this delivery only, and a
	// duplicate schedules a second delivery of the same bits.
	if fs := n.net.faults; fs != nil {
		v := fs.decide(arrival, p.Latency)
		if !v.deliver {
			fl.frame.Release()
			return
		}
		fl.deliverAt(arrival + v.jitter + p.RecvOverhead)
		if v.duplicate {
			fl.frame.Retain()
			fl.deliverAt(arrival + v.jitter + v.dupDelay + p.RecvOverhead)
		}
		return
	}
	fl.deliverAt(arrival + p.RecvOverhead)
}

// sent is the sender-side completion: free the NIC, then refill.
func (fl *flight) sent() {
	n, onSent := fl.nic, fl.onSent
	fl.done()
	if onSent != nil {
		onSent()
	}
	if n.qhead < len(n.queue) {
		n.start(n.next())
		return
	}
	n.busy = false
	if n.onIdle != nil {
		n.onIdle()
	}
}

// deliverAt schedules one delivery of the flight.
func (fl *flight) deliverAt(t sim.Time) {
	fl.pending++
	fl.nic.world.At(t, fl.deliverFn)
}

// deliver hands one arrived transaction to the peer's receive handler
// and then drops the delivery's reference to the frame. The flight is
// retired first: a handler that answers at once reuses it.
func (fl *flight) deliver() {
	n, fr := fl.nic.net.nics[fl.dst], fl.frame
	d := Delivery{Src: fl.nic.node.ID, Kind: fl.kind, Aux: fl.aux, Data: fr.buf, Frame: fr}
	fl.done()
	n.stats.RxPackets++
	n.stats.RxBytes += int64(len(fr.buf))
	if n.onRecv == nil {
		panic(fmt.Sprintf("simnet: delivery on %s node %d with no receive handler", n.net.prof.Name, n.node.ID))
	}
	n.onRecv(d)
	fr.Release()
}
