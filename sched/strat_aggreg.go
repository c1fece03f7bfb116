package sched

// aggregStrategy is the paper's aggregation strategy (§4): it
// "accumulates communication requests as long as the cumulated length
// does not require to switch to the rendez-vous protocol". On top of the
// plain accumulation it applies the two reorderings the paper describes:
//
//   - control and priority wrappers move to the front of the train, so a
//     rendezvous request (or an RPC service id) never waits behind bulk
//     data;
//   - small wrappers may be pulled past ones that do not fit, maximizing
//     the number of aggregation operations (§7: "reordered to maximize
//     the number of aggregation operations"). The receiver's resequencing
//     buffer restores per-flow order.
//
// This is also the §5.3 datatype optimization: the small blocks of an
// indexed datatype coalesce with the rendezvous requests of the large
// blocks into a single physical packet.
type aggregStrategy struct{ *accumulator }

func (aggregStrategy) Name() string { return "aggreg" }

func (s aggregStrategy) Elect(w Window, rail RailInfo) *Election {
	return s.accumulate(w, rail, rail.Caps.RdvThreshold)
}

// accumulator is the election state every built-in strategy value owns:
// the Election it hands back, valid until the value's next Elect, and
// the scan visitors, bound once so that an election allocates nothing (a
// func literal handed to Window.Scan is a heap closure per scan).
// maxSegs and limit are the budgets of the election in progress.
type accumulator struct {
	el                  Election
	maxSegs, limit      int
	urgent, bulk, first func(Wrapper) bool
}

func newAccumulator() *accumulator {
	a := new(accumulator)
	a.urgent, a.bulk, a.first = a.visitUrgent, a.visitBulk, a.visitFirst
	return a
}

// accumulate is the shared two-pass accumulation core: urgent wrappers
// first, then data wrappers in order, scanning past misfits (the
// reordering), all within the rail's gather capacity and the given byte
// limit. A limit of zero (a profile may legally report RdvThreshold 0)
// or less means unlimited — FitsWithin defines that semantics for every
// strategy, built-in or custom.
func (a *accumulator) accumulate(w Window, rail RailInfo, limit int) *Election {
	a.el.Reset()
	a.maxSegs, a.limit = rail.Caps.MaxSegments, limit
	w.Scan(a.urgent)
	w.Scan(a.bulk)
	if a.el.Empty() {
		w.Scan(a.first)
		if a.el.Empty() {
			return nil
		}
	}
	return &a.el
}

// visitUrgent is pass 1: control and priority wrappers, in order.
func (a *accumulator) visitUrgent(pw Wrapper) bool {
	if pw.Urgent() && a.el.FitsWithin(pw, a.maxSegs, a.limit) {
		a.el.Pick(pw)
	}
	return a.el.Segments() < a.maxSegs
}

// visitBulk is pass 2: data wrappers in order, scanning past misfits
// (the reordering).
func (a *accumulator) visitBulk(pw Wrapper) bool {
	if pw.Urgent() {
		return true // already considered
	}
	if a.el.FitsWithin(pw, a.maxSegs, a.limit) {
		a.el.Pick(pw)
	}
	return a.el.Segments() < a.maxSegs
}

// visitFirst guarantees progress: a lone wrapper larger than the
// aggregation limit (a rendezvous body chunk on a non-RDMA rail) still
// goes out, alone — but never one whose gather list this rail cannot
// accept; a wider rail will take it.
func (a *accumulator) visitFirst(pw Wrapper) bool {
	if pw.Segments > a.maxSegs {
		return true
	}
	a.el.Pick(pw)
	return false
}
