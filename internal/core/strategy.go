package core

import (
	"nmad/internal/sim"
	"nmad/sched"
)

// The engine's side of the public scheduling SPI (package sched): this
// file adapts the internal window and packet wrappers to the read-only
// views strategies consume, and validates the elections they return.
// Strategies — built-in or user-registered — never see a *packet or the
// window itself, so the engine alone enforces the conservation contract:
// every wrapper leaves the window exactly once, onto a rail that can
// physically carry it.

// windowView adapts one gate's window to sched.Window for one rail. The
// views live in Gate.views, one per attached rail, and elections pass a
// pointer into that array: converting a pointer to the interface is
// allocation-free, where boxing a fresh value per Elect call was a heap
// allocation on the pump hot path.
type windowView struct {
	g   *Gate
	drv int
}

func (v *windowView) Pending() int { return v.g.win.pending(v.drv) }

func (v *windowView) Credits() int { return v.g.Credits() }

// Scan stamps every wrapper it shows with the current election
// generation before the strategy sees it: that stamp is what electOutput
// validates picks against, so a pick counts only if this Elect call's
// Scan showed it.
func (v *windowView) Scan(visit func(sched.Wrapper) bool) {
	gen := v.g.eng.electGen
	v.g.scanEligible(v.drv, func(pw *packet) bool {
		pw.gen = gen
		return visit(wrapperView(pw))
	})
}

// scanEligible visits the wrappers a strategy may elect for one rail:
// the raw window scan with the flow-control eligibility filter applied.
// When the peer's eager landing credits run low, only the first
// `credits` unsent data wrappers in gate-wide submission order are
// visible — the rest stay in the collect layer until a credit entry
// replenishes the gate. Budgeting in submission order (not per-rail
// view order) keeps the oldest wrapper of every flow inside the credit
// window, which is what makes exhaustion a stall instead of a deadlock.
// Control entries (rendezvous handshake, acks, credits) and pre-granted
// body chunks always pass.
//
// The filtered scan costs O(credits + eligible prefix), not O(window):
// it knows how many wrappers it can still show and stops once none is
// left. Two window invariants give the count. Every data wrapper in the
// window is in the FIFO, so the gate's other wrappers number the window
// size minus the FIFO length; and the stamped data wrappers this rail
// sees are counted while stamping. A credit-starved gate with no control
// traffic returns without walking at all. A control wrapper pinned to
// another rail keeps the count above zero, and the scan walks the whole
// view.
func (g *Gate) scanEligible(drv int, visit func(pw *packet) bool) {
	e := g.eng
	queue := g.dataWindow()
	if e.opts.Credits == 0 || g.credits >= len(queue) {
		// Flow control off, or the budget covers the whole backlog:
		// nothing to hide, skip the filter entirely.
		e.countWalk(g.win.scan(drv, visit))
		return
	}
	// Stamp the credit window — the first `credits` FIFO entries — with
	// a fresh generation so the scan filters with one comparison per
	// wrapper, not a membership probe per entry.
	e.creditGen++
	data := 0 // stamped wrappers this rail can see
	if g.credits > 0 {
		for _, pw := range queue[:g.credits] {
			pw.creditStamp = e.creditGen
			if pw.driver == drv || pw.driver == anyDriver {
				data++
			}
		}
	}
	other := g.win.size() - len(queue) // the gate's non-data wrappers
	if data == 0 && other == 0 {
		return
	}
	e.countWalk(g.win.scan(drv, func(pw *packet) bool {
		switch {
		case pw.kind != kindData:
			other--
		case pw.creditStamp != e.creditGen:
			return true // beyond the credit window: invisible
		default:
			data--
		}
		return visit(pw) && (data > 0 || other > 0)
	}))
}

// wrapperView builds the SPI descriptor of one wrapper: the per-packet
// characteristics the paper's §3.2 lists, plus the opaque identity the
// election hands back.
func wrapperView(pw *packet) sched.Wrapper {
	var fl sched.Flags
	if pw.flags&flagPriority != 0 {
		fl |= sched.Priority
	}
	if pw.flags&flagUnordered != 0 {
		fl |= sched.Unordered
	}
	if pw.ctrl() {
		fl |= sched.Control
	}
	return sched.Wrapper{
		Dest:     int(pw.gate.peer),
		Tag:      uint64(pw.tag),
		Seq:      uint32(pw.seq),
		Len:      pw.payloadLen(),
		WireSize: pw.wireSize(),
		Segments: pw.segCount(),
		Flags:    fl,
		Ref:      pw,
	}
}

// railInfo projects a rail record onto the RailInfo the SPI promises: the
// nominal capability report and the sampled functional bandwidth.
func railInfo(r *rail) sched.RailInfo {
	return sched.RailInfo{
		Index:   r.idx,
		Name:    r.drv.Name(),
		Caps:    r.drv.Caps(),
		Sampled: r.sampler.estimate(),
	}
}

// liveRails reports every attached rail the reliability layer has not
// declared failed, in attach order: a mid-flow body plan re-elects the
// survivors, and RailInfo.Index keeps the attach-order value, so shares
// still address the right driver. The last live rail never fails, so the
// survey is never empty. The slice is engine-owned scratch, sized to the
// rail count once and valid until the next call: strategies receive it
// for the duration of one PlanBody and must not retain it (the spileak
// analyzer enforces exactly that contract).
func (e *Engine) liveRails() []sched.RailInfo {
	if cap(e.railScratch) < len(e.rails) {
		e.railScratch = make([]sched.RailInfo, 0, len(e.rails))
	}
	live := e.railScratch[:0]
	for _, r := range e.rails {
		if !r.failed {
			live = append(live, railInfo(r))
		}
	}
	return live
}

var (
	cElections      = sim.Counter("core.elections")       // strategy Elect calls
	cEmptyElections = sim.Counter("core.elections_empty") // of which nothing valid was elected
)

// electOutput runs the strategy for one (gate, rail) pair and converts
// its election into an output that records both, enforcing the SPI
// contract: a pick must have been shown by this Elect call's Scan (not
// stale), appear once (no duplication), and fit the rail's gather
// capacity (sendable). Invalid picks are dropped and their wrappers stay
// in the window — no strategy can lose or duplicate application data.
func (e *Engine) electOutput(g *Gate, r *rail) *output {
	info := railInfo(r)
	// Membership check without allocating a set or walking the view
	// again: the view's Scan stamps what it shows with this fresh
	// generation, a valid pick carries the stamp, and the stamp is
	// cleared on pick so duplicates mismatch. Only flow-control-eligible
	// wrappers are shown — a strategy that somehow picks a wrapper beyond
	// the peer's credit budget loses the pick, not the credit invariant.
	// Picks of another gate or rail (a strategy that scanned a view it
	// kept, which the SPI forbids) and of another engine (a strategy
	// value shared between engines) are rejected explicitly, since the
	// stamp alone does not tell them apart.
	e.electGen++
	e.world.Count(cElections)
	el := e.strat.Elect(&g.views[r.idx], info)
	if el.Empty() {
		e.world.Count(cEmptyElections)
		return nil
	}
	maxSegs := info.Caps.MaxSegments
	if e.opts.Reliability && maxSegs > 1 {
		maxSegs-- // one gather slot is spent on the link framing header
	}
	out := e.newOutput()
	out.gate, out.rail = g, r
	for _, w := range el.Wrappers() {
		pw, ok := w.Ref.(*packet)
		if !ok || pw.gate != g || pw.gen != e.electGen || (pw.driver != anyDriver && pw.driver != r.idx) {
			continue // foreign, stale or duplicated pick
		}
		if out.segs+pw.segCount() > maxSegs {
			continue // the rail cannot gather this train; leave it behind
		}
		pw.gen = 0
		out.add(pw)
	}
	if len(out.entries) == 0 {
		e.world.Count(cEmptyElections)
		e.freeOutput(out)
		return nil
	}
	return out
}

// planBody asks the strategy for a rendezvous body plan, validates it
// and appends it to dst: shares must cover [0, size) exactly, in
// ascending offset order, on attached rails. Invalid plans (and
// non-planner strategies) stream over the best single rail
// (sched.SingleRail).
func (e *Engine) planBody(dst []sched.BodyShare, size int) []sched.BodyShare {
	rails := e.liveRails()
	if bp, ok := e.strat.(sched.BodyPlanner); ok && len(rails) > 1 {
		if plan := bp.PlanBody(rails, size); e.validPlan(plan, size) {
			return append(dst, plan...)
		}
	}
	return append(dst, sched.BodyShare{Rail: sched.BestRail(rails), Size: size})
}

// validPlan checks the BodyPlanner contract (and that no share landed on
// a failed rail).
func (e *Engine) validPlan(plan []sched.BodyShare, size int) bool {
	off := 0
	for _, s := range plan {
		if s.Rail < 0 || s.Rail >= len(e.rails) || e.rails[s.Rail].failed || s.Offset != off || s.Size <= 0 {
			return false
		}
		off += s.Size
	}
	return off == size
}
