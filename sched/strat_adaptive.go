package sched

import (
	"nmad/internal/sim"
)

// adaptiveStrategy closes the paper's feedback loop (§3.2: strategies
// consume "the nominal and functional characteristics of the underlying
// network") using only this package's SPI — no engine internals. Two
// decisions shift with the achieved-bandwidth signal:
//
//   - Aggregation: on a rail achieving well below its nominal bandwidth
//     (congestion, a slow peer, background bodies) the byte budget of a
//     train shrinks proportionally. Long trains on a slow rail lock
//     wrappers into a queue that drains slowly; electing short trains
//     keeps the rest of the window available to healthier rails, which
//     the common submission list then load-balances onto.
//   - Body splitting: rendezvous bodies share over the rails in
//     proportion to functional bandwidth, and a rail whose achieved
//     figure has collapsed below a fraction of the best rail's is
//     dropped from the plan entirely instead of being handed a share it
//     cannot move in time.
//
// The OnAttach/OnComplete hooks feed a per-rail transaction log the
// strategy (and its tests) can inspect; the bandwidth estimate itself
// comes pre-smoothed from the engine's EWMA sampler via RailInfo.
//
// No mutex: registered strategies are instantiated per engine and every
// hook runs inside the engine's single-threaded sim.World (OnComplete
// fires once per transaction — it is hot-path). Sharing one instance
// across engines requires Options.StrategyImpl, whose documentation
// already places synchronization on the caller.
type adaptiveStrategy struct {
	*accumulator
	rails map[int]*railLog
}

// railLog is the per-rail feedback record accumulated from completions.
type railLog struct {
	Name     string
	Packets  int      // aggregated output packets completed
	Bodies   int      // rendezvous body transactions completed
	Bytes    int64    // payload bytes moved
	Busy     sim.Time // cumulated transaction time
	Entries  int      // wrappers carried by completed packets
	Attached bool
}

// adaptiveMinFactor floors the aggregation-budget scaling so a badly
// congested rail still amortizes per-packet overheads over a few
// wrappers.
const adaptiveMinFactor = 0.25

// adaptiveMinBudget floors the scaled aggregation budget in bytes: a
// small rendezvous threshold scaled down can drop below one entry
// header, which would reject every wrapper from FitsWithin and
// degenerate elections to one-wrapper packets. The floor never exceeds
// the rail's own unscaled threshold, so adaptation shrinks budgets but
// cannot inflate them past the aggregation cap the rail declares.
const adaptiveMinBudget = 256

// adaptiveCollapseFrac is the functional-bandwidth fraction of the best
// rail below which a rail is dropped from body plans.
const adaptiveCollapseFrac = 0.10

func newAdaptive() *adaptiveStrategy {
	return &adaptiveStrategy{accumulator: newAccumulator(), rails: make(map[int]*railLog)}
}

func (s *adaptiveStrategy) Name() string { return "adaptive" }

func (s *adaptiveStrategy) Elect(w Window, rail RailInfo) *Election {
	// A zero threshold means the rail never switches to rendezvous:
	// aggregation is unlimited (accumulate treats it so) and there is no
	// byte budget to scale.
	limit := rail.Caps.RdvThreshold
	if limit > 0 {
		if nominal := rail.Caps.Bandwidth; rail.Sampled > 0 && rail.Sampled < nominal {
			factor := rail.Sampled / nominal
			if factor < adaptiveMinFactor {
				factor = adaptiveMinFactor
			}
			limit = int(float64(limit) * factor)
		}
		floor := adaptiveMinBudget
		if rail.Caps.RdvThreshold < floor {
			floor = rail.Caps.RdvThreshold
		}
		if limit < floor {
			limit = floor
		}
	}
	return s.accumulate(w, rail, limit)
}

// PlanBody shares a rendezvous body proportionally to functional
// bandwidth, dropping collapsed rails.
func (s *adaptiveStrategy) PlanBody(rails []RailInfo, size int) []BodyShare {
	best := 0.0
	for _, r := range rails {
		if bw := r.Bandwidth(); bw > best {
			best = bw
		}
	}
	usable := make([]RailInfo, 0, len(rails))
	for _, r := range rails {
		if r.Bandwidth() >= best*adaptiveCollapseFrac {
			usable = append(usable, r)
		}
	}
	if len(usable) == 0 {
		usable = rails
	}
	return proportionalPlan(usable, size, RailInfo.Bandwidth)
}

// OnAttach seeds the feedback log for a rail.
func (s *adaptiveStrategy) OnAttach(rail RailInfo) {
	s.log(rail.Index).Name = rail.Name
	s.log(rail.Index).Attached = true
}

// OnComplete records one finished transaction.
func (s *adaptiveStrategy) OnComplete(c Completion) {
	l := s.log(c.Rail)
	if c.Entries == 0 {
		l.Bodies++
	} else {
		l.Packets++
		l.Entries += c.Entries
	}
	l.Bytes += int64(c.Bytes)
	l.Busy += c.Duration
}

func (s *adaptiveStrategy) log(rail int) *railLog {
	l := s.rails[rail]
	if l == nil {
		l = &railLog{}
		s.rails[rail] = l
	}
	return l
}

// Snapshot copies the per-rail feedback log (diagnostics and tests).
func (s *adaptiveStrategy) Snapshot() map[int]railLog {
	out := make(map[int]railLog, len(s.rails))
	for i, l := range s.rails {
		out[i] = *l
	}
	return out
}
