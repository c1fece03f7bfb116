package sched

import (
	"math"

	"nmad/internal/sim"
)

// Strategy is the optimization function of the paper's §3.2: when a rail
// idles, the engine asks the strategy to elect the next physical packet
// out of the optimization window. Implementations see, through the
// Window view and the rail report, the inputs the paper lists — the
// number of wrappers in the window, each wrapper's characteristics
// (destination, flow tag, length, sequence number, flags), and the
// nominal and functional characteristics of the underlying network.
type Strategy interface {
	// Name identifies the strategy (the registry key for built-ins).
	Name() string
	// Elect synthesizes the next physical packet for the given rail out
	// of the window, or returns nil (or an empty election) to leave the
	// rail idle. Oversized data wrappers have already been converted to
	// rendezvous requests before Elect runs. Elections are validated by
	// the engine: stale, duplicated or physically unsendable picks are
	// ignored and their wrappers stay in the window.
	//
	// The caller reads the election before it asks the same strategy
	// value for another, and keeps nothing of it afterwards. That lets a
	// strategy own one Election and Reset it at the top of every Elect
	// instead of allocating one per call, which is what every built-in
	// does: an *Election a built-in returns is valid until that strategy
	// value's next Elect. A strategy that returns a fresh Election each
	// time is just as correct.
	Elect(w Window, rail RailInfo) *Election
}

// BodyPlanner is implemented by strategies that control how a rendezvous
// body is distributed over the rails (the paper's multi-rail splitting,
// "possibly in a heterogeneous manner"). Strategies without it stream
// the body over the best single rail.
type BodyPlanner interface {
	// PlanBody splits size bytes into per-rail shares. Shares must cover
	// [0, size) exactly, in ascending offset order; invalid plans are
	// replaced by a single-rail plan.
	//
	// As with Elect, the caller reads the plan before it asks the same
	// strategy value for another and keeps nothing of it: the engine
	// copies the shares into the transaction before it submits anything.
	// A planner may therefore return its own storage, which is what the
	// built-ins do — a plan "split" or "adaptive" returns is valid until
	// that strategy value's next PlanBody.
	PlanBody(rails []RailInfo, size int) []BodyShare
}

// BodyShare is one rail's slice of a rendezvous body.
type BodyShare struct {
	Rail   int
	Offset int
	Size   int
}

// Attacher is an optional lifecycle hook: OnAttach runs once per rail as
// the engine binds it, before any traffic flows.
type Attacher interface {
	OnAttach(rail RailInfo)
}

// Completion is the feedback record of one finished NIC transaction: the
// functional-characteristics signal a strategy can close the paper's
// feedback loop with.
type Completion struct {
	// Rail is the rail the transaction used.
	Rail int
	// Peer is the destination node.
	Peer int
	// Bytes is the payload carried (excluding entry headers).
	Bytes int
	// Entries is the number of wrappers aggregated into the packet;
	// 0 marks a rendezvous body transaction.
	Entries int
	// Duration is the virtual time from submission to NIC completion.
	Duration sim.Time
}

// Completer is an optional lifecycle hook: OnComplete runs after the NIC
// finishes each physical packet or rendezvous body chunk the strategy's
// engine sent.
type Completer interface {
	OnComplete(c Completion)
}

// BestRail picks the rail with the highest nominal bandwidth, preferring
// RDMA-capable rails (they stream rendezvous bodies zero-copy). The
// result is the rail's engine index (RailInfo.Index), valid even when
// rails is a filtered or reordered subset.
func BestRail(rails []RailInfo) int {
	return bestRail(rails, math.Inf(-1))
}

// bestRail is BestRail over the rails whose planning bandwidth is at
// least floor.
func bestRail(rails []RailInfo, floor float64) int {
	if len(rails) == 0 {
		return 0
	}
	best, bestScore := 0, -1.0
	for i, r := range rails {
		if r.Bandwidth() < floor {
			continue
		}
		score := r.Caps.Bandwidth
		if r.Caps.RDMA {
			score *= 2
		}
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return rails[best].Index
}

// SingleRail plans a whole body over the best single rail — the fallback
// body plan for strategies that are not BodyPlanners.
func SingleRail(rails []RailInfo, size int) []BodyShare {
	return []BodyShare{{Rail: BestRail(rails), Offset: 0, Size: size}}
}
