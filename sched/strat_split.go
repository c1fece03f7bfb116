package sched

import "math"

// splitStrategy is the paper's multi-rails strategy (§4): it "balances
// the communication flow over the set of available NICs, possibly by
// splitting messages in a heterogeneous manner if necessary". Election
// behaves like the aggregation strategy (the common submission list
// already load-balances small traffic onto whichever rail idles first);
// the multi-rail work happens on rendezvous bodies, which are split
// across every rail proportionally to bandwidth.
type splitStrategy struct {
	aggregStrategy
	*planStore
}

func newSplit() splitStrategy {
	return splitStrategy{aggregStrategy{newAccumulator()}, new(planStore)}
}

func (splitStrategy) Name() string { return "split" }

// planStore is the storage behind a built-in planner's body plans: the
// plan PlanBody returns is backed by it and valid until the same
// strategy value's next PlanBody (the BodyPlanner rule), so planning a
// body allocates nothing.
type planStore struct {
	plan []BodyShare
}

// minShare is the smallest body slice worth a dedicated rail transaction;
// below it the per-transaction costs eat the parallelism.
const minShare = 4 << 10

// PlanBody implements BodyPlanner with bandwidth-proportional shares.
// Proportions use the sampled (functional) bandwidth of each rail when
// the sampler has warmed up, the nominal capability figure before that.
func (s splitStrategy) PlanBody(rails []RailInfo, size int) []BodyShare {
	s.plan = proportionalPlan(s.plan[:0], rails, size, math.Inf(-1))
	return s.plan
}

// proportionalPlan appends to plan the shares of size bytes over the
// rails whose planning bandwidth (RailInfo.Bandwidth) is at least floor,
// proportionally to it, giving rounding remainders to the last share and
// degenerating to a single rail for small bodies. Filtering by a floor
// rather than taking a filtered slice keeps the plan free of rail
// storage a strategy may not retain.
func proportionalPlan(plan []BodyShare, rails []RailInfo, size int, floor float64) []BodyShare {
	var total float64
	n, last := 0, -1
	for i, r := range rails {
		if bw := r.Bandwidth(); bw >= floor {
			total += bw
			n, last = n+1, i
		}
	}
	if n == 1 || size < 2*minShare || total <= 0 {
		return append(plan, BodyShare{Rail: bestRail(rails, floor), Offset: 0, Size: size}) // SingleRail
	}
	off := 0
	for i, r := range rails {
		bw := r.Bandwidth()
		if bw < floor {
			continue
		}
		var share int
		if i == last {
			share = size - off // exact cover, absorb rounding
		} else {
			share = int(float64(size) * bw / total)
			share = min(share, size-off)
		}
		if share <= 0 {
			continue
		}
		plan = append(plan, BodyShare{Rail: r.Index, Offset: off, Size: share})
		off += share
	}
	if off != size {
		// All rounding ended up dropping bytes; give the remainder to the
		// fastest rail.
		plan = append(plan, BodyShare{Rail: bestRail(rails, floor), Offset: off, Size: size - off})
	}
	return plan
}
