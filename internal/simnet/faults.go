package simnet

import (
	"fmt"

	"nmad/internal/sim"
)

// Fault injection: the lossy-fabric model. A FaultProfile attached to a
// fabric makes each network drop, duplicate or reorder packets with
// configured probabilities, and take whole rails down for scheduled
// windows — driven by the deterministic sim RNG, so a (profile, seed)
// pair reproduces the exact same fault sequence forever. The timing
// model is unchanged: a dropped packet still occupied the wire and the
// sending NIC (the bits left the host; the fabric lost them), a
// reordered packet is delayed on delivery only, and a duplicate is a
// second delivery of the same bits. Faults act below the engine, on the
// delivery path of every transaction, exactly where a real fabric loses
// packets: after the sender believes the transaction is done.

// RailFaults is the fault configuration of one rail (one network). The
// yaml tags are the scenario-file spelling where it differs from the
// recording's JSON name ("-": not settable from a scenario file).
type RailFaults struct {
	// DropProb is the probability a packet is lost in the fabric: it
	// pays its wire time but is never delivered.
	DropProb float64 `json:"drop_prob,omitempty" yaml:"drop"`
	// DupProb is the probability a packet is delivered twice (the second
	// copy one extra wire latency later).
	DupProb float64 `json:"dup_prob,omitempty" yaml:"dup"`
	// ReorderProb is the probability a packet's delivery is delayed by a
	// random jitter in (0, ReorderJitter], letting packets sent later
	// overtake it. The wire occupancy chain is unaffected.
	ReorderProb float64 `json:"reorder_prob,omitempty" yaml:"reorder"`
	// ReorderJitter bounds the reorder delay; 0 means 4x the rail's wire
	// latency.
	ReorderJitter sim.Time `json:"reorder_jitter,omitempty" yaml:"-"`
	// Outages schedule rail death windows: every delivery whose arrival
	// falls inside a window is dropped (the rail is dark; senders only
	// notice through their own timeouts).
	Outages []Outage `json:"outages,omitempty"`
}

// Outage is one scheduled rail death window: the rail delivers nothing
// in [At, At+Duration).
type Outage struct {
	At       sim.Time `json:"at"`
	Duration sim.Time `json:"duration"`
}

// FaultProfile configures fault injection for a whole fabric: one
// RailFaults per network in attach order (missing entries mean a
// perfect rail), and the seed of the deterministic fault RNG.
type FaultProfile struct {
	// Seed drives every probabilistic decision. Equal (profile, seed)
	// pairs produce identical fault sequences on identical traffic.
	Seed uint64 `json:"seed"`
	// Rails holds the per-rail fault parameters, indexed like
	// Fabric.Networks(). Rails beyond the slice are fault-free.
	Rails []RailFaults `json:"rails"`
}

// Rail returns the fault configuration of rail i (the zero value when
// the profile does not cover it).
func (fp FaultProfile) Rail(i int) RailFaults {
	if i < 0 || i >= len(fp.Rails) {
		return RailFaults{}
	}
	return fp.Rails[i]
}

// Validate reports whether every probability is a probability and every
// outage well-formed.
func (fp FaultProfile) Validate() error {
	for i, r := range fp.Rails {
		for _, p := range []struct {
			name string
			v    float64
		}{{"drop", r.DropProb}, {"dup", r.DupProb}, {"reorder", r.ReorderProb}} {
			if p.v < 0 || p.v > 1 {
				return fmt.Errorf("simnet: rail %d %s probability %v outside [0, 1]", i, p.name, p.v)
			}
		}
		if r.ReorderJitter < 0 {
			return fmt.Errorf("simnet: rail %d negative reorder jitter", i)
		}
		for _, o := range r.Outages {
			if o.At < 0 || o.Duration <= 0 {
				return fmt.Errorf("simnet: rail %d outage at %v for %v is not a window", i, o.At, o.Duration)
			}
		}
	}
	return nil
}

// UniformLoss is the common case: every rail drops packets with the
// same probability, nothing else.
func UniformLoss(seed uint64, drop float64, rails int) FaultProfile {
	fp := FaultProfile{Seed: seed}
	for i := 0; i < rails; i++ {
		fp.Rails = append(fp.Rails, RailFaults{DropProb: drop})
	}
	return fp
}

// FaultStats counts what the injector did to one network.
type FaultStats struct {
	// Dropped counts packets lost by probability, OutageDropped packets
	// lost to a scheduled rail death window.
	Dropped       int
	OutageDropped int
	// Duplicated counts extra deliveries injected; Reordered counts
	// deliveries delayed by jitter.
	Duplicated int
	Reordered  int
}

// faultState is the live injector of one network. Each network derives
// its own RNG stream from (seed, rail index) so adding a rail never
// shifts the fault sequence of the others.
type faultState struct {
	cfg   RailFaults
	rng   *sim.RNG
	stats FaultStats
}

func newFaultState(cfg RailFaults, seed uint64, rail int) *faultState {
	// Decorrelate the per-rail streams: hash the rail index into the
	// seed through one SplitMix64 step.
	r := sim.NewRNG(seed ^ (uint64(rail)+1)*0x9e3779b97f4a7c15)
	return &faultState{cfg: cfg, rng: r}
}

// verdict is the injector's decision for one delivery.
type verdict struct {
	deliver   bool
	duplicate bool
	jitter    sim.Time // extra delivery delay (reorder), 0 = on time
	dupDelay  sim.Time // delay of the duplicate copy after the original
}

// decide rolls the fault dice for one packet arriving at the given
// instant. It always consumes the same number of RNG draws per packet,
// so the fault sequence depends only on the traffic order, never on
// earlier verdicts.
func (fs *faultState) decide(arrival sim.Time, latency sim.Time) verdict {
	dropRoll := fs.rng.Float64()
	dupRoll := fs.rng.Float64()
	reorderRoll := fs.rng.Float64()
	jitterRoll := fs.rng.Float64()

	for _, o := range fs.cfg.Outages {
		if arrival >= o.At && arrival < o.At+o.Duration {
			fs.stats.OutageDropped++
			return verdict{}
		}
	}
	if dropRoll < fs.cfg.DropProb {
		fs.stats.Dropped++
		return verdict{}
	}
	v := verdict{deliver: true}
	if dupRoll < fs.cfg.DupProb {
		fs.stats.Duplicated++
		v.duplicate = true
		v.dupDelay = latency
		if v.dupDelay <= 0 {
			v.dupDelay = sim.Microsecond
		}
	}
	if reorderRoll < fs.cfg.ReorderProb {
		fs.stats.Reordered++
		span := fs.cfg.ReorderJitter
		if span <= 0 {
			span = 4 * latency
		}
		if span <= 0 {
			span = 4 * sim.Microsecond
		}
		// Jitter in (0, span]: never zero, so a reordered packet always
		// leaves its FIFO slot.
		v.jitter = sim.Time(float64(span)*jitterRoll) + 1
	}
	return v
}

// SetFaults installs a fault profile on the fabric, one injector per
// network in attach order. Call it after every AddNetwork; calling it
// again replaces the injectors (and resets their RNG streams and
// stats). A nil-rail profile detaches injection.
func (f *Fabric) SetFaults(fp FaultProfile) error {
	if err := fp.Validate(); err != nil {
		return err
	}
	f.faults = &fp
	for i, net := range f.nets {
		cfg := fp.Rail(i)
		if cfg.inert() {
			net.faults = nil
			continue
		}
		net.faults = newFaultState(cfg, fp.Seed, i)
	}
	return nil
}

// inert reports whether the configuration injects nothing.
func (r RailFaults) inert() bool {
	return r.DropProb == 0 && r.DupProb == 0 && r.ReorderProb == 0 && len(r.Outages) == 0
}

// UpdateRailFaults changes one rail's fault configuration mid-run,
// preserving the rail's RNG stream and fault counters: the injector
// keeps drawing from where it was, so a run that updates a rail at a
// deterministic instant stays deterministic end to end. This is the
// runtime mutation hook the scenario harness drives for drop-rate
// changes and injected outages (SetFaults, by contrast, replaces every
// injector and resets streams and stats — a full reinstall).
//
// When no profile is installed yet, one is created with seed 0 covering
// exactly this fabric's rails; pass a seeded profile through SetFaults
// first if the scenario needs a specific fault stream.
func (f *Fabric) UpdateRailFaults(rail int, cfg RailFaults) error {
	if rail < 0 || rail >= len(f.nets) {
		return fmt.Errorf("simnet: no rail %d in a %d-rail fabric", rail, len(f.nets))
	}
	probe := FaultProfile{Rails: []RailFaults{cfg}}
	if err := probe.Validate(); err != nil {
		return err
	}
	if f.faults == nil {
		f.faults = &FaultProfile{}
	}
	// Clone the rail slice before mutating: SetFaults shares the backing
	// array with the caller's profile (and possibly with a recording).
	rails := make([]RailFaults, len(f.faults.Rails), max(len(f.faults.Rails), rail+1))
	copy(rails, f.faults.Rails)
	for len(rails) <= rail {
		rails = append(rails, RailFaults{})
	}
	rails[rail] = cfg
	f.faults.Rails = rails
	net := f.nets[rail]
	switch {
	case cfg.inert():
		net.faults = nil
	case net.faults != nil:
		net.faults.cfg = cfg // keep the RNG stream and the counters
	default:
		net.faults = newFaultState(cfg, f.faults.Seed, rail)
	}
	return nil
}

// FaultStats reports what the injector did to this network (zero value
// when no faults are installed).
func (n *Network) FaultStats() FaultStats {
	if n.faults == nil {
		return FaultStats{}
	}
	return n.faults.stats
}
