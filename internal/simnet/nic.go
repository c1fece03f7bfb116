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

// Tx is one NIC transaction: bytes bound for a peer node, given either as
// a gather list for the NIC to snapshot or as a frame already filled.
// Inside the NIC there is one form: Submit turns Segs into a frame on
// entry, and every queued transaction holds one.
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
	queue  []*Tx // FIFO behind the transaction in progress; qhead is its front
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
	if tx.Frame == nil {
		// Snapshot now, not at transmission start: a queued transaction
		// must not read the caller's buffers later (the documented Segs
		// contract).
		tx.Frame = n.net.fabric.frames.New(tx.Segs)
		tx.Segs = nil
	}
	tx.NSegs = nsegs
	if depth := len(n.queue) - n.qhead + 1; depth > n.stats.MaxQueue {
		n.stats.MaxQueue = depth
	}
	if n.busy {
		n.queue = append(n.queue, tx)
		return nil
	}
	n.start(tx)
	return nil
}

// next pops the queue head; the backing array is reused once it drains.
func (n *NIC) next() *Tx {
	tx := n.queue[n.qhead]
	n.queue[n.qhead] = nil
	n.qhead++
	if n.qhead == len(n.queue) {
		n.queue, n.qhead = n.queue[:0], 0
	}
	return tx
}

// start runs one transaction's timing model. The NIC holds the queued
// transaction's reference to its frame; it becomes the reference of the
// scheduled delivery — dropped here when the fabric loses the packet,
// doubled when it duplicates it.
func (n *NIC) start(tx *Tx) {
	n.busy = true

	p := &n.net.prof
	fr := tx.Frame
	size := len(fr.buf)

	now := n.world.Now()
	setup := p.SendOverhead + p.Gap + sim.Time(tx.NSegs)*p.PerSegment
	var arrival, nicFree sim.Time
	switch tx.Kind {
	case TxEager:
		// Cut-through PIO: the host copies the payload into the NIC while
		// the wire drains concurrently; the packet cannot finish before
		// either stage does. The NIC frees when the host copy lands.
		nicDone := now + setup + sim.ByteTime(size, p.PIOBandwidth)
		arrival = n.net.reserveWire(n.node.ID, tx.Dst, size+p.HeaderBytes, now+setup, nicDone)
		nicFree = nicDone
	case TxRdma:
		// DMA setup is constant; the DMA engine then occupies the NIC at
		// wire pace until the body has streamed out.
		arrival = n.net.reserveWire(n.node.ID, tx.Dst, size+p.HeaderBytes, now+setup, 0)
		nicFree = arrival - p.Latency // drain instant on the sender side
	default:
		panic("simnet: unknown TxKind " + tx.Kind.String())
	}

	n.stats.TxPackets++
	n.stats.TxBytes += int64(size)
	n.stats.TxSegs += tx.NSegs

	// Sender-side completion: free the NIC, then refill.
	n.world.At(nicFree, func() {
		if tx.OnSent != nil {
			tx.OnSent()
		}
		if n.qhead < len(n.queue) {
			n.start(n.next())
			return
		}
		n.busy = false
		if n.onIdle != nil {
			n.onIdle()
		}
	})

	// Receiver-side delivery, through the fault injector when one is
	// installed: a drop schedules nothing (the wire time was already
	// paid above), reorder jitter delays this delivery only, and a
	// duplicate schedules a second delivery of the same bits.
	peer := n.net.nics[tx.Dst]
	deliverAt := func(t sim.Time) {
		n.world.At(t, func() { peer.deliver(n.node.ID, tx) })
	}
	if fs := n.net.faults; fs != nil {
		v := fs.decide(arrival, p.Latency)
		if !v.deliver {
			fr.Release()
			return
		}
		deliverAt(arrival + v.jitter + p.RecvOverhead)
		if v.duplicate {
			fr.Retain()
			deliverAt(arrival + v.jitter + v.dupDelay + p.RecvOverhead)
		}
		return
	}
	deliverAt(arrival + p.RecvOverhead)
}

// deliver hands one arrived transaction to the receive handler and then
// drops the delivery's reference to the frame.
func (n *NIC) deliver(src NodeID, tx *Tx) {
	fr := tx.Frame
	n.stats.RxPackets++
	n.stats.RxBytes += int64(len(fr.buf))
	if n.onRecv == nil {
		panic(fmt.Sprintf("simnet: delivery on %s node %d with no receive handler", n.net.prof.Name, n.node.ID))
	}
	n.onRecv(Delivery{Src: src, Kind: tx.Kind, Aux: tx.Aux, Data: fr.buf, Frame: fr})
	fr.Release()
}
