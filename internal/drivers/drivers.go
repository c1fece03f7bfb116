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
	// OnPlace binds where RDMA bytes arriving for this node land (see
	// simnet.Placer): the NIC writes them there when the sender's DMA read
	// ends. Close unbinds it.
	OnPlace(p simnet.Placer)
	// Close detaches the handlers. Traffic in flight still arrives.
	Close() error
	// Send posts one transaction. An eager transaction's segments are
	// snapshotted before Send returns; an RDMA transaction's are read when
	// the NIC finishes and must stay unchanged until then (see simnet.Tx).
	// onSent (optional) fires when the NIC is done with the transaction on
	// the sending side.
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

// errNotOpen is what Send and Close return on a port that is not open.
var errNotOpen = errors.New("drivers: driver is not open")

// port is one row of the table below: what a technology's driver calls
// itself and, where the hardware's gather list is shorter than the engine
// needs, the software gather limit the port advertises instead.
type port struct {
	name string
	// softSegments, when set, replaces the NIC's native gather capacity in
	// the capability report: transactions with more segments than the NIC
	// accepts are flattened into one contiguous bounce buffer, and the
	// memcpy is charged to the host by delaying the NIC submission.
	softSegments int
}

// ports maps a network profile name to its port. The ports are thin — at
// best a direct call to the "hardware" — and differ only where the
// hardware differs.
var ports = map[string]port{
	// Myrinet EXpress for Myri-10G — the paper's primary evaluation
	// network. MX exposes a native gather list and RDMA, so every engine
	// request maps directly onto one NIC call; the rendezvous threshold
	// reported by the driver (32 KiB, MX's eager limit) is the aggregation
	// cap the paper's strategy uses.
	"mx10g": {name: "mx"},
	// Quadrics QsNetII (Elan4/QM500) — the paper's second evaluation
	// network. Elan offers native put/get RDMA and a moderate gather list;
	// small transactions go out through the fast PIO ("STEN") path, large
	// bodies through the DMA engine.
	"qsnet2": {name: "elan"},
	// Myrinet-2000 using the GM driver — the generation before MX. GM's
	// gather list has only two entries, so the port advertises a larger
	// software limit and bounces anything beyond the native two. GM has no
	// general RDMA, so the engine streams rendezvous bodies as eager chunk
	// packets into the pre-registered landing buffer.
	"gm2000": {name: "gm", softSegments: 32},
	// Dolphin SCI using the SISCI API. SCI moves data by PIO writes into a
	// remotely mapped window, strictly contiguously, so every multi-segment
	// packet is bounced. Remote-window placement counts as RDMA for
	// rendezvous purposes.
	"sisci": {name: "sisci", softSegments: 32},
	// The Ethernet fallback through the kernel TCP stack. writev provides a
	// gather list; there is no RDMA, so rendezvous bodies stream as eager
	// chunk packets, and latency is dominated by the kernel path.
	"tcp": {name: "tcp"},
}

// New binds the port matching the network's profile name to the given
// node's NIC. It is the registry the engine uses to bind whatever rails a
// fabric offers.
func New(net *simnet.Network, node simnet.NodeID) (Driver, error) {
	pt, ok := ports[net.Profile().Name]
	if !ok {
		return nil, fmt.Errorf("drivers: no port for network %q", net.Profile().Name)
	}
	return pt.bind(net, node), nil
}

// NewMX binds the MX port whatever the network calls itself; the network
// should use the mx10g profile.
func NewMX(net *simnet.Network, node simnet.NodeID) Driver {
	return ports["mx10g"].bind(net, node)
}

func (pt port) bind(net *simnet.Network, node simnet.NodeID) *base {
	nic := net.NIC(node)
	p := nic.Profile()
	maxSegs := p.MaxSegments
	if pt.softSegments > 0 {
		maxSegs = pt.softSegments
	}
	return &base{
		port: pt,
		nic:  nic,
		caps: Caps{
			RdvThreshold: p.RdvThreshold,
			MaxSegments:  maxSegs,
			RDMA:         p.RDMA,
			Latency:      p.Latency,
			Bandwidth:    p.Bandwidth,
		},
	}
}

// base is the one implementation of Driver: a port bound to a NIC.
type base struct {
	port
	nic  *simnet.NIC
	caps Caps
	open bool
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

func (b *base) OnPlace(p simnet.Placer) { b.nic.OnPlace(p) }

func (b *base) Close() error {
	if !b.open {
		return errNotOpen
	}
	b.nic.OnRecv(func(simnet.Delivery) {}) // drain late arrivals silently
	b.nic.OnIdle(nil)
	b.nic.OnPlace(nil)
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
		return errNotOpen
	}
	if nsegs <= b.nic.Profile().MaxSegments {
		return b.nic.Submit(tx)
	}
	if nsegs > b.softSegments {
		return fmt.Errorf("%w on %s: %d segments", simnet.ErrTooManySegments, b.name, nsegs)
	}
	// Software gather: the bounce buffer is the transaction's frame —
	// flattened here unless the caller already did — and the memcpy is
	// charged by delaying the submission of what is now one segment: a
	// copy of the transaction, so that tx itself never leaves the stack.
	bounced := *tx
	if bounced.Frame == nil {
		bounced.Frame, bounced.Segs = b.nic.Network().Frames().New(tx.Segs), nil
	}
	bounced.NSegs = 1
	delay := b.nic.Node().CopyCost(len(bounced.Frame.Bytes()))
	b.nic.Network().World().After(delay, func() {
		if err := b.nic.Submit(&bounced); err != nil {
			panic("drivers: bounce submit failed: " + err.Error())
		}
	})
	return nil
}
