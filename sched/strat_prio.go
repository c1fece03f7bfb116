package sched

// prioStrategy favors the earliest possible delivery of priority
// wrappers: the paper's motivating RPC case, where the service id must
// arrive before the arguments so the receiver can prepare the data areas.
// It aggregates like aggregStrategy, but a priority wrapper preempts the
// train entirely — the output carries the priority wrappers and nothing
// else, so no bulk payload delays them on the wire.
type prioStrategy struct {
	*accumulator
	// hot counts down elections since urgent traffic was last sighted.
	// While hot, bulk-only elections keep the capped budget: a priority
	// flow that is momentarily absent from the window (an RPC waiting
	// for its reply) would otherwise find a full-size train mid-wire on
	// every send. Per-engine state — each engine constructs its own
	// strategy instance through the registry.
	hot int
	// scan is the state of the urgent scan in progress, reset by every
	// Elect; visit is visitUrgentOnly, bound once.
	scan  prioScan
	visit func(Wrapper) bool
}

func newPrio() *prioStrategy {
	s := &prioStrategy{accumulator: newAccumulator()}
	s.visit = s.visitUrgentOnly
	return s
}

func (*prioStrategy) Name() string { return "prio" }

// prioBlockedFlows bounds the per-election space spent remembering
// flows whose head urgent wrapper did not fit. More blocked flows than
// this in one election is pathological; the overflow path just stops
// electing further ordered urgent wrappers this round (they stay in the
// window and go out on a later election).
const prioBlockedFlows = 8

// prioFallbackDivisor shrinks the fallback aggregation budget while
// urgent traffic is pending: bulk still flows, but in short trains, so
// the wire frees up quickly for the urgent wrapper once it becomes
// sendable (a wider rail, a drained election).
const prioFallbackDivisor = 4

// prioHotElections is the hysteresis span: how many bulk-only elections
// after an urgent sighting keep the capped budget before trains grow
// back to full size.
const prioHotElections = 4

// cappedLimit is the headroom aggregation budget (0 stays unlimited).
func cappedLimit(rail RailInfo) int {
	limit := rail.Caps.RdvThreshold
	if limit > 0 {
		limit = max(limit/prioFallbackDivisor, 1)
	}
	return limit
}

// prioScan is what one urgent scan remembers between wrappers.
type prioScan struct {
	rail RailInfo
	// Flows whose head urgent wrapper did not fit: later ORDERED urgent
	// wrappers on these tags must not leapfrog it — they would only sit
	// in the receiver's resequencing buffer behind the hole. Unordered
	// urgent wrappers (control traffic) carry no sequence and stay
	// eligible.
	blocked  [prioBlockedFlows]uint64
	nblocked int
	overflow bool
	// The first urgent misfit this rail could at least gather: the
	// lone-departure candidate. A wrapper whose wire size exceeds the
	// aggregation budget but whose payload stays under the rendezvous
	// threshold is never converted to rendezvous and never fits an
	// election with company — without this clause it starves for as long
	// as bulk keeps the window non-empty.
	stuck         Wrapper
	stuckOK       bool
	urgentBlocked bool
}

func (s *prioStrategy) visitUrgentOnly(pw Wrapper) bool {
	if !pw.Urgent() {
		return true
	}
	sc, el := &s.scan, &s.el
	maxSegs := sc.rail.Caps.MaxSegments
	ordered := !pw.Flags.Has(Unordered)
	if ordered {
		if sc.overflow {
			return true
		}
		for i := 0; i < sc.nblocked; i++ {
			if sc.blocked[i] == pw.Tag {
				return true // held behind an unfit same-flow predecessor
			}
		}
	}
	if !el.Fits(pw, sc.rail) {
		sc.urgentBlocked = true
		if !sc.stuckOK && pw.Segments <= maxSegs {
			sc.stuck, sc.stuckOK = pw, true
		}
		if ordered {
			if sc.nblocked < len(sc.blocked) {
				sc.blocked[sc.nblocked] = pw.Tag
				sc.nblocked++
			} else {
				sc.overflow = true
			}
		}
		return true // skip and continue: other flows may still fit
	}
	el.Pick(pw)
	return el.Segments() < maxSegs
}

func (s *prioStrategy) Elect(w Window, rail RailInfo) *Election {
	el := &s.el
	el.Reset()
	s.scan = prioScan{rail: rail}
	w.Scan(s.visit)
	if !el.Empty() {
		s.hot = prioHotElections
		return el
	}
	if s.scan.urgentBlocked {
		s.hot = prioHotElections
		if s.scan.stuckOK {
			// Nothing urgent fits together, and this one never will:
			// progress beats budget — it departs alone. (The scan saw an
			// empty election throughout, so the misfit is intrinsic, not
			// crowding.)
			return el.Pick(s.scan.stuck)
		}
		// Urgent traffic is pending but this rail cannot gather any of it
		// (segment-blocked; a wider rail will take it). Keep bulk moving,
		// but with headroom: a full-size aggregation train would delay
		// the urgent wrapper's departure further — the priority inversion
		// this strategy exists to avoid.
		return s.accumulate(w, rail, cappedLimit(rail))
	}
	if s.hot > 0 {
		// Urgent traffic was here a few elections ago and its flow is
		// likely mid-round-trip; keep the headroom so its next wrapper
		// does not land behind a freshly launched full-size train.
		s.hot--
		return s.accumulate(w, rail, cappedLimit(rail))
	}
	return s.accumulate(w, rail, rail.Caps.RdvThreshold)
}
