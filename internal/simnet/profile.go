// Package simnet models high-performance cluster interconnects on top of
// the sim kernel. It is the hardware substitute for this reproduction: the
// paper's Myri-10G, Quadrics QM500, Myrinet-2000, SCI and Ethernet NICs
// become parameterized cost models (a LogGP-style family) attached to a
// deterministic virtual clock.
//
// The model has three serial resources per transfer:
//
//	host:  per-call software overhead (charged by the layers above),
//	NIC:   injection — Gap + segments·PerSegment + size/PIOBandwidth for
//	       PIO transactions, or Gap + segments·PerSegment setup for DMA,
//	NIC.   For DMA the NIC stays busy until the wire drains (the DMA
//	       engine paces at wire speed).
//	wire:  a FIFO channel per directed node pair: each packet occupies it
//	       for (size+HeaderBytes)/Bandwidth, then arrives Latency later.
//
// Aggregation pays Gap once instead of once per message, and rendezvous
// DMA skips the host memcpy on both sides — exactly the two effects the
// paper's engine exploits.
package simnet

import "nmad/internal/sim"

// Profile is the parameter set of one network technology.
type Profile struct {
	Name string

	// Latency is the one-way wire latency (switch + cable + NIC pipeline).
	Latency sim.Time
	// Bandwidth is the wire data rate in bytes per second.
	Bandwidth float64
	// PIOBandwidth is the host-to-NIC copy rate for eager (PIO) sends.
	PIOBandwidth float64
	// SendOverhead is the host CPU cost to hand one transaction to the NIC.
	SendOverhead sim.Time
	// RecvOverhead is the host CPU cost to take one arrival from the NIC.
	RecvOverhead sim.Time
	// Gap is the per-transaction NIC occupancy floor: the minimum interval
	// between two successive injections (doorbell, descriptor fetch).
	Gap sim.Time
	// PerSegment is the extra injection cost for each gather/scatter
	// segment in a transaction.
	PerSegment sim.Time
	// MaxSegments is the gather/scatter list capacity. 1 means the NIC can
	// only send contiguous buffers.
	MaxSegments int
	// RdvThreshold is the eager/rendezvous protocol switch recommended by
	// the driver, in bytes. It also caps aggregation in the paper's
	// aggregation strategy.
	RdvThreshold int
	// RDMA reports whether the NIC offers remote put/get (zero-copy bodies).
	RDMA bool
	// HeaderBytes is the hardware framing added to every packet on the wire.
	HeaderBytes int
	// MTU is the largest single transaction the NIC accepts; larger bodies
	// must be chunked by the driver. 0 means unlimited.
	MTU int
}

// Validate reports whether the profile is self-consistent.
func (p Profile) Validate() error {
	switch {
	case p.Name == "":
		return errProfile("empty name")
	case p.Bandwidth <= 0:
		return errProfile(p.Name + ": non-positive wire bandwidth")
	case p.PIOBandwidth <= 0:
		return errProfile(p.Name + ": non-positive PIO bandwidth")
	case p.MaxSegments < 1:
		return errProfile(p.Name + ": MaxSegments must be >= 1")
	case p.RdvThreshold < 0:
		return errProfile(p.Name + ": negative rendezvous threshold")
	case p.Latency < 0 || p.Gap < 0 || p.SendOverhead < 0 || p.RecvOverhead < 0 || p.PerSegment < 0:
		return errProfile(p.Name + ": negative time constant")
	case p.MTU < 0:
		return errProfile(p.Name + ": negative MTU")
	}
	return nil
}

type errProfile string

func (e errProfile) Error() string { return "simnet: bad profile: " + string(e) }

// The five technologies the NewMadeleine prototype was ported to (paper
// §4), calibrated against the 2006 testbed of §5 (two 1.8 GHz Opteron
// nodes). Each profile's comment names the figures it is calibrated to.

// MX10G models a Myri-10G NIC with the MX 1.2 driver — the paper's primary
// evaluation network (~2.3 µs MPI latency, ~1.2 GB/s).
func MX10G() Profile {
	return Profile{
		Name:         "mx10g",
		Latency:      sim.FromMicroseconds(1.30),
		Bandwidth:    1.25e9,
		PIOBandwidth: 4.0e9,
		SendOverhead: sim.FromMicroseconds(0.50),
		RecvOverhead: sim.FromMicroseconds(0.40),
		Gap:          sim.FromMicroseconds(0.55),
		PerSegment:   50 * sim.Nanosecond,
		MaxSegments:  32,
		RdvThreshold: 32 << 10,
		RDMA:         true,
		HeaderBytes:  8,
	}
}

// QsNetII models a Quadrics QM500 (Elan4) NIC — the paper's second
// evaluation network (~1.8 µs MPI latency, ~900 MB/s, native put/get).
func QsNetII() Profile {
	return Profile{
		Name:         "qsnet2",
		Latency:      sim.FromMicroseconds(1.10),
		Bandwidth:    9.0e8,
		PIOBandwidth: 4.5e9,
		SendOverhead: sim.FromMicroseconds(0.35),
		RecvOverhead: sim.FromMicroseconds(0.30),
		Gap:          sim.FromMicroseconds(0.40),
		PerSegment:   40 * sim.Nanosecond,
		MaxSegments:  16,
		RdvThreshold: 16 << 10,
		RDMA:         true,
		HeaderBytes:  8,
	}
}

// GM2000 models a Myrinet-2000 NIC with the GM driver (the generation
// before MX; higher latency, ~245 MB/s, a two-entry gather list).
func GM2000() Profile {
	return Profile{
		Name:         "gm2000",
		Latency:      sim.FromMicroseconds(6.50),
		Bandwidth:    2.45e8,
		PIOBandwidth: 3.0e8,
		SendOverhead: sim.FromMicroseconds(0.90),
		RecvOverhead: sim.FromMicroseconds(0.80),
		Gap:          sim.FromMicroseconds(1.20),
		PerSegment:   150 * sim.Nanosecond,
		MaxSegments:  2,
		RdvThreshold: 16 << 10,
		RDMA:         false,
		HeaderBytes:  16,
	}
}

// SISCI models a Dolphin SCI adapter with the SISCI API (PIO remote writes
// into a mapped window; no gather list).
func SISCI() Profile {
	return Profile{
		Name:         "sisci",
		Latency:      sim.FromMicroseconds(2.30),
		Bandwidth:    3.26e8,
		PIOBandwidth: 3.26e8,
		SendOverhead: sim.FromMicroseconds(0.45),
		RecvOverhead: sim.FromMicroseconds(0.40),
		Gap:          sim.FromMicroseconds(0.60),
		PerSegment:   120 * sim.Nanosecond,
		MaxSegments:  1,
		RdvThreshold: 8 << 10,
		RDMA:         true,
		HeaderBytes:  8,
	}
}

// TCPGbE models gigabit Ethernet through the kernel TCP stack (the paper's
// fallback port; writev gives it a gather list, but latency is two orders
// of magnitude above the native interconnects).
func TCPGbE() Profile {
	return Profile{
		Name:         "tcp",
		Latency:      sim.FromMicroseconds(25.0),
		Bandwidth:    1.17e8,
		PIOBandwidth: 2.0e9,
		SendOverhead: sim.FromMicroseconds(2.00),
		RecvOverhead: sim.FromMicroseconds(2.00),
		Gap:          sim.FromMicroseconds(3.00),
		PerSegment:   200 * sim.Nanosecond,
		MaxSegments:  16,
		RdvThreshold: 64 << 10,
		RDMA:         false,
		HeaderBytes:  66, // Ethernet + IP + TCP framing
	}
}

// Profiles returns every built-in profile, in a stable order.
func Profiles() []Profile {
	return []Profile{MX10G(), QsNetII(), GM2000(), SISCI(), TCPGbE()}
}

// ProfileByName looks a built-in profile up by its Name field.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}
