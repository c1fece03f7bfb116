package sched

import "nmad/internal/drivers"

// Caps is the nominal capability report of a transfer-layer driver:
// rendezvous threshold, gather/scatter capacity, RDMA availability and
// the nominal latency/bandwidth figures (paper §4).
type Caps = drivers.Caps

// RailInfo describes one rail to a strategy: the nominal capability
// report of its driver combined with the functional characteristic the
// engine samples at runtime. This is the paper's "nominal and functional
// characteristics of the underlying network" in one value. A strategy is
// only ever offered live rails.
type RailInfo struct {
	// Index is the rail's position in the engine's attach order (the
	// value Gate send options pin with OnRail).
	Index int
	// Name is the driver name ("mx", "elan", "gm", "sisci", "tcp").
	Name string
	// Caps is the nominal capability report.
	Caps Caps
	// Sampled is the achieved bandwidth in bytes/second, estimated by
	// the engine's EWMA sampler over live traffic; 0 while the sampler
	// is still warming up. The estimate is fed the wire footprint of
	// each transaction (entry headers included), matching what the
	// measured duration covers.
	Sampled float64
}

// Bandwidth is the figure strategies should plan with: the sampled
// (functional) bandwidth when the sampler has warmed up, the nominal
// capability figure before that.
func (r RailInfo) Bandwidth() float64 {
	if r.Sampled > 0 {
		return r.Sampled
	}
	return r.Caps.Bandwidth
}
