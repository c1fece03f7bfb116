package simnet

import (
	"fmt"

	"nmad/internal/sim"
)

// NodeID identifies a host in the fabric.
type NodeID int

// Host carries the node-local machine parameters (the paper's testbed:
// 1.8 GHz dual-core Opterons with DDR1 memory).
type Host struct {
	// MemcpyBandwidth is the sustained host memory copy rate in bytes per
	// second. Eager receives, datatype pack/unpack and unexpected-message
	// buffering are charged against it. Scenario files spell it memcpy_bw.
	MemcpyBandwidth float64 `yaml:"memcpy_bw"`
}

// DefaultHost matches the 2006 Opteron testbed of the paper.
func DefaultHost() Host { return Host{MemcpyBandwidth: 1.2e9} }

// Node is one simulated host.
type Node struct {
	ID   NodeID
	host Host
	// slowdown scales every host-model cost of the node: 1 is the
	// nominal machine, 4 is a node whose memory system delivers a
	// quarter of the bandwidth (thermal throttling, a noisy neighbor, a
	// failing DIMM). Mutable mid-run — the straggler-node scenarios
	// drive it through SetSlowdown.
	slowdown float64
}

// SetSlowdown scales the node's host-model costs by the given factor
// (>= 1; 1 restores the nominal machine). It takes effect immediately:
// every memcpy charged after the call pays factor times the nominal
// cost, which is how a scenario turns one node into a straggler mid-run.
func (n *Node) SetSlowdown(factor float64) {
	if factor < 1 {
		panic(fmt.Sprintf("simnet: slowdown factor %v < 1 would speed the node up", factor))
	}
	n.slowdown = factor
}

// slowdownFactor is the current host-model scale factor (1 = nominal).
func (n *Node) slowdownFactor() float64 {
	if n.slowdown == 0 {
		return 1
	}
	return n.slowdown
}

// CopyCost is the virtual time needed to memcpy n bytes on this host.
func (n *Node) CopyCost(size int) sim.Time {
	return sim.ByteTime(size, n.host.MemcpyBandwidth/n.slowdownFactor())
}

// Fabric is a set of nodes joined by one or more networks. Each call to
// AddNetwork installs one NIC per node for that technology, so a two-rail
// machine is simply a fabric with two networks.
type Fabric struct {
	world  *sim.World
	nodes  []*Node
	nets   []*Network
	faults *FaultProfile // installed fault injection, nil = perfect fabric
	frames FrameList     // every frame in flight on the fabric is drawn from here
	// flights is the free list of NIC transaction records (see flight),
	// shared by every NIC of the fabric and linked through the records;
	// flightSlab is how many records its last miss made (makeFlight).
	flights    *flight
	flightSlab int
}

// NewFabric creates n nodes sharing one world and one host parameter set.
func NewFabric(w *sim.World, n int, host Host) *Fabric {
	if n < 1 {
		panic("simnet: fabric needs at least one node")
	}
	f := &Fabric{world: w}
	f.frames.world = w
	for i := 0; i < n; i++ {
		f.nodes = append(f.nodes, &Node{ID: NodeID(i), host: host})
	}
	return f
}

// World returns the simulation world of the fabric.
func (f *Fabric) World() *sim.World { return f.world }

// Frames returns the fabric's frame free list: where a sender that
// flattens its own transactions (Tx.Frame) draws them from.
func (f *Fabric) Frames() *FrameList { return &f.frames }

// Nodes reports how many hosts the fabric has.
func (f *Fabric) Nodes() int { return len(f.nodes) }

// Node returns host id, panicking on an out-of-range id.
func (f *Fabric) Node(id NodeID) *Node {
	if int(id) < 0 || int(id) >= len(f.nodes) {
		panic(fmt.Sprintf("simnet: no node %d in a %d-node fabric", id, len(f.nodes)))
	}
	return f.nodes[id]
}

// AddNetwork plugs one NIC per node into a new network of the given
// technology and returns it.
func (f *Fabric) AddNetwork(prof Profile) (*Network, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	net := &Network{
		fabric:   f,
		prof:     prof,
		wireFree: make(map[[2]NodeID]sim.Time),
	}
	for _, node := range f.nodes {
		net.nics = append(net.nics, newNIC(node, net))
	}
	f.nets = append(f.nets, net)
	return net, nil
}

// Networks returns the installed networks in AddNetwork order.
func (f *Fabric) Networks() []*Network { return f.nets }

// Network is one interconnect technology spanning every node of a fabric.
type Network struct {
	fabric    *Fabric
	prof      Profile
	nics      []*NIC
	wireFree  map[[2]NodeID]sim.Time // per directed pair: when the channel drains
	wireScale float64                // effective-bandwidth factor (congestion), 1 = nominal
	faults    *faultState            // fault injector, nil = perfect rail
}

// SetWireScale degrades (or restores) the network's effective wire
// bandwidth by a factor in (0, 1]: a model of congestion from traffic
// outside the simulated job (a shared switch, another application). The
// nominal profile is unchanged — which is exactly the situation the
// engine's bandwidth sampling exists to detect.
func (n *Network) SetWireScale(scale float64) {
	if scale <= 0 || scale > 1 {
		panic("simnet: wire scale must be in (0, 1]")
	}
	n.wireScale = scale
}

// scale is the current congestion factor (1 = uncongested).
func (n *Network) scale() float64 {
	if n.wireScale == 0 {
		return 1
	}
	return n.wireScale
}

// Profile returns the technology parameters of the network.
func (n *Network) Profile() Profile { return n.prof }

// NIC returns the adapter of the given node on this network.
func (n *Network) NIC(id NodeID) *NIC {
	if int(id) < 0 || int(id) >= len(n.nics) {
		panic(fmt.Sprintf("simnet: no NIC for node %d on %s", id, n.prof.Name))
	}
	return n.nics[id]
}

// reserveWire books the directed channel src->dst for a packet of
// wireBytes whose first byte can hit the wire at ready and whose last
// byte cannot leave the host before drainFloor (cut-through: the wire
// drains concurrently with PIO injection, but cannot finish before the
// host copy does). It returns the arrival time at the remote NIC.
// Packets between a pair arrive in the order they were booked (FIFO
// wire), and two packets never overlap on the channel.
func (n *Network) reserveWire(src, dst NodeID, wireBytes int, ready, drainFloor sim.Time) sim.Time {
	key := [2]NodeID{src, dst}
	depart := ready
	if free := n.wireFree[key]; free > depart {
		depart = free
	}
	drain := depart + sim.ByteTime(wireBytes, n.prof.Bandwidth*n.scale())
	if drain < drainFloor {
		drain = drainFloor
	}
	n.wireFree[key] = drain
	return drain + n.prof.Latency
}
