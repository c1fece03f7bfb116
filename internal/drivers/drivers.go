// Package drivers implements the NewMadeleine transfer layer: one minimal
// driver per network technology. Per the paper (§4), "the implementation
// of each corresponding transfer layer consists in a minimal network API
// (initialisation, closing, sending, receiving and polling methods)" plus
// a capability report: the rendezvous threshold, the availability of
// gather/scatter, and the availability of RDMA.
//
// Each driver binds one node's NIC on one simulated network. Drivers are
// deliberately thin — at best a direct call to the underlying "hardware" —
// but the ports differ where the hardware differs: GM's two-entry gather
// list and SISCI's contiguous-only PIO force a software bounce copy, and
// TCP has no RDMA at all.
package drivers

import (
	"errors"
	"fmt"

	"nmad/internal/sim"
	"nmad/internal/simnet"
)

// Caps is the capability report of a transfer layer, used by the
// scheduling strategies to make protocol decisions without knowing the
// network technology (paper §4: "Information about the underlying network
// can be obtained in a generic manner through a specific API").
type Caps struct {
	// RdvThreshold is where the driver recommends switching from the eager
	// protocol to rendezvous; it also caps aggregation.
	RdvThreshold int
	// MaxSegments is the native gather/scatter list capacity exposed to
	// the engine. Drivers that bounce-copy internally report a large value
	// and charge the copy.
	MaxSegments int
	// RDMA reports remote put/get (zero-copy rendezvous bodies).
	RDMA bool
	// Latency and Bandwidth are nominal figures for load-balancing
	// decisions (multi-rail splitting uses the bandwidth ratio).
	Latency   sim.Time
	Bandwidth float64
}

// Driver is the minimal transfer-layer API of the paper. Open must be
// called before any traffic; Close detaches the driver from its NIC.
type Driver interface {
	// Name identifies the port ("mx", "elan", "gm", "sisci", "tcp").
	Name() string
	// Caps reports the driver capabilities.
	Caps() Caps
	// Open binds receive and idle handlers to the NIC. The idle handler
	// runs whenever the NIC drains — the hook the optimizer-scheduler
	// layer uses to elect the next packet. A delivery's Data is valid
	// until the receive handler returns unless the handler retains the
	// delivery's Frame (see simnet.Delivery).
	Open(onRecv func(simnet.Delivery), onIdle func()) error
	// Close detaches the handlers. Traffic in flight still arrives.
	Close() error
	// Send posts one transaction. Segments are snapshotted before Send
	// returns. onSent (optional) fires when the NIC is done with the
	// transaction on the sending side.
	Send(dst simnet.NodeID, kind simnet.TxKind, segs [][]byte, aux uint64, onSent func()) error
	// SendFrame is Send for a caller that flattened the transaction
	// itself: fr travels as it is, charged as the nsegs-segment gather it
	// was filled from, and the driver takes over one reference (see
	// simnet.Tx.Frame); on error it has taken nothing.
	SendFrame(dst simnet.NodeID, kind simnet.TxKind, fr *simnet.Frame, nsegs int, aux uint64, onSent func()) error
	// Poll reports whether the driver could accept a transaction right
	// now without queueing (the NIC is idle).
	Poll() bool
	// Stats exposes the NIC traffic counters.
	Stats() simnet.NICStats
}

// Errors common to all drivers.
var (
	ErrClosed  = errors.New("drivers: driver is closed")
	ErrNotOpen = errors.New("drivers: driver is not open")
)

// base carries the behaviour shared by every port.
type base struct {
	name string
	nic  *simnet.NIC
	caps Caps
	open bool

	// bounce, when set, is the software gather limit: transactions with
	// more native segments than the NIC accepts are flattened into one
	// contiguous buffer, and the memcpy is charged to the host by
	// delaying the NIC submission.
	bounceLimit int
}

func newBase(name string, nic *simnet.NIC, caps Caps, bounceLimit int) *base {
	return &base{name: name, nic: nic, caps: caps, bounceLimit: bounceLimit}
}

func (b *base) Name() string { return b.name }

func (b *base) Caps() Caps { return b.caps }

func (b *base) Stats() simnet.NICStats { return b.nic.Stats() }

func (b *base) Poll() bool { return b.open && b.nic.Idle() }

func (b *base) Open(onRecv func(simnet.Delivery), onIdle func()) error {
	if b.open {
		return fmt.Errorf("drivers: %s already open", b.name)
	}
	b.nic.OnRecv(onRecv)
	b.nic.OnIdle(onIdle)
	b.open = true
	return nil
}

func (b *base) Close() error {
	if !b.open {
		return ErrNotOpen
	}
	b.nic.OnRecv(func(simnet.Delivery) {}) // drain late arrivals silently
	b.nic.OnIdle(nil)
	b.open = false
	return nil
}

func (b *base) Send(dst simnet.NodeID, kind simnet.TxKind, segs [][]byte, aux uint64, onSent func()) error {
	return b.post(&simnet.Tx{Dst: dst, Kind: kind, Segs: segs, Aux: aux, OnSent: onSent}, len(segs))
}

func (b *base) SendFrame(dst simnet.NodeID, kind simnet.TxKind, fr *simnet.Frame, nsegs int, aux uint64, onSent func()) error {
	return b.post(&simnet.Tx{Dst: dst, Kind: kind, Frame: fr, NSegs: nsegs, Aux: aux, OnSent: onSent}, nsegs)
}

// post submits a transaction gathered from nsegs segments, through the
// software gather when that is more than the NIC takes natively.
func (b *base) post(tx *simnet.Tx, nsegs int) error {
	if !b.open {
		return ErrNotOpen
	}
	if nsegs <= b.nic.Profile().MaxSegments {
		return b.nic.Submit(tx)
	}
	if b.bounceLimit == 0 || nsegs > b.bounceLimit {
		return fmt.Errorf("%w on %s: %d segments", simnet.ErrTooManySegments, b.name, nsegs)
	}
	// Software gather: the bounce buffer is the transaction's frame —
	// flattened here unless the caller already did — and the memcpy is
	// charged by delaying the submission of what is now one segment.
	if tx.Frame == nil {
		tx.Frame, tx.Segs = b.nic.Network().Frames().New(tx.Segs), nil
	}
	tx.NSegs = 1
	delay := b.nic.Node().CopyCost(len(tx.Frame.Bytes()))
	b.nicWorld().After(delay, func() {
		if err := b.nic.Submit(tx); err != nil {
			panic("drivers: bounce submit failed: " + err.Error())
		}
	})
	return nil
}

func (b *base) nicWorld() *sim.World { return b.nic.Network().World() }

// capsFrom derives the generic capability report from a NIC profile.
func capsFrom(p simnet.Profile, maxSegs int) Caps {
	return Caps{
		RdvThreshold: p.RdvThreshold,
		MaxSegments:  maxSegs,
		RDMA:         p.RDMA,
		Latency:      p.Latency,
		Bandwidth:    p.Bandwidth,
	}
}

// New constructs the port matching the network's profile name. It is the
// registry the engine uses to bind whatever rails a fabric offers.
func New(net *simnet.Network, node simnet.NodeID) (Driver, error) {
	switch net.Profile().Name {
	case "mx10g":
		return NewMX(net, node), nil
	case "qsnet2":
		return NewElan(net, node), nil
	case "gm2000":
		return NewGM(net, node), nil
	case "sisci":
		return NewSISCI(net, node), nil
	case "tcp":
		return NewTCP(net, node), nil
	default:
		return nil, fmt.Errorf("drivers: no port for network %q", net.Profile().Name)
	}
}
