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

// Tx is one NIC transaction: a gather list bound for a peer node.
type Tx struct {
	Dst  NodeID
	Kind TxKind
	// Segs is the gather list. The NIC snapshots the bytes at Submit time,
	// so callers may reuse their buffers once Submit returns.
	Segs [][]byte
	// Aux is 64 bits of out-of-band immediate data delivered with the
	// packet (models RDMA immediate data / MX match bits). The engine uses
	// it for rendezvous body identification.
	Aux uint64
	// OnSent, if non-nil, fires when the NIC finishes with the transaction
	// on the sending side.
	OnSent func()

	// Snapshot state filled by Submit: the flattened bytes and the
	// gather-list shape, captured before Submit returns so the caller may
	// reuse both the segment buffers and the Segs slice itself while the
	// transaction waits in the queue.
	data  []byte
	nsegs int
}

// Delivery is an arrived transaction, handed to the receiving NIC's
// handler RecvOverhead after wire arrival.
type Delivery struct {
	Src  NodeID
	Kind TxKind
	Aux  uint64
	Data []byte // concatenated gather list
}

// Errors returned by Submit.
var (
	ErrTooManySegments = errors.New("simnet: transaction exceeds the NIC gather list capacity")
	ErrOversized       = errors.New("simnet: transaction exceeds the NIC MTU")
	ErrSelfSend        = errors.New("simnet: transaction addressed to the sending node")
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
	queue  []*Tx
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
func (n *NIC) Idle() bool { return !n.busy && len(n.queue) == 0 }

// OnIdle registers the callback invoked each time the NIC drains.
func (n *NIC) OnIdle(fn func()) { n.onIdle = fn }

// OnRecv registers the delivery handler. Arrivals with no handler panic:
// a driver must be bound before traffic flows.
func (n *NIC) OnRecv(fn func(Delivery)) { n.onRecv = fn }

// Submit validates and enqueues a transaction, starting it at once if the
// NIC is idle.
func (n *NIC) Submit(tx *Tx) error {
	p := n.net.prof
	if len(tx.Segs) > p.MaxSegments {
		return fmt.Errorf("%w: %d segments > %d on %s", ErrTooManySegments, len(tx.Segs), p.MaxSegments, p.Name)
	}
	if tx.Dst == n.node.ID {
		return ErrSelfSend
	}
	if int(tx.Dst) < 0 || int(tx.Dst) >= len(n.net.nics) {
		return fmt.Errorf("simnet: no node %d on %s", tx.Dst, p.Name)
	}
	size := 0
	for _, s := range tx.Segs {
		size += len(s)
	}
	if p.MTU > 0 && size > p.MTU {
		return fmt.Errorf("%w: %d bytes > MTU %d on %s", ErrOversized, size, p.MTU, p.Name)
	}
	// Snapshot now, not at transmission start: a queued transaction must
	// not read the caller's buffers later (the documented Segs contract).
	tx.nsegs = len(tx.Segs)
	tx.data = make([]byte, 0, size)
	for _, s := range tx.Segs {
		tx.data = append(tx.data, s...)
	}
	tx.Segs = nil
	n.queue = append(n.queue, tx)
	if len(n.queue) > n.stats.MaxQueue {
		n.stats.MaxQueue = len(n.queue)
	}
	if !n.busy {
		n.startNext()
	}
	return nil
}

// startNext pops the queue head and runs its timing model.
func (n *NIC) startNext() {
	tx := n.queue[0]
	n.queue = n.queue[1:]
	n.busy = true

	p := n.net.prof
	size := len(tx.data)
	data := tx.data

	now := n.world.Now()
	setup := p.SendOverhead + p.Gap + sim.Time(tx.nsegs)*p.PerSegment
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
	n.stats.TxSegs += tx.nsegs

	// Sender-side completion: free the NIC, then refill.
	n.world.At(nicFree, func() {
		if tx.OnSent != nil {
			tx.OnSent()
		}
		if len(n.queue) > 0 {
			n.startNext()
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
	src := n.node.ID
	deliverAt := func(t sim.Time) {
		n.world.At(t, func() {
			peer.stats.RxPackets++
			peer.stats.RxBytes += int64(len(data))
			if peer.onRecv == nil {
				panic(fmt.Sprintf("simnet: delivery on %s node %d with no receive handler", p.Name, tx.Dst))
			}
			peer.onRecv(Delivery{Src: src, Kind: tx.Kind, Aux: tx.Aux, Data: data})
		})
	}
	if fs := n.net.faults; fs != nil {
		v := fs.decide(arrival, p.Latency)
		if !v.deliver {
			return
		}
		deliverAt(arrival + v.jitter + p.RecvOverhead)
		if v.duplicate {
			deliverAt(arrival + v.jitter + v.dupDelay + p.RecvOverhead)
		}
		return
	}
	deliverAt(arrival + p.RecvOverhead)
}
