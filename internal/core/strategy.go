package core

import "nmad/sched"

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

func (v *windowView) Peer() int { return int(v.g.peer) }

func (v *windowView) Pending() int { return v.g.win.pending(v.drv) }

func (v *windowView) Credits() int { return v.g.Credits() }

func (v *windowView) Scan(visit func(sched.Wrapper) bool) {
	v.g.scanEligible(v.drv, func(pw *packet) bool { return visit(wrapperView(pw)) })
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
func (g *Gate) scanEligible(drv int, visit func(pw *packet) bool) {
	queue := g.dataWindow()
	if g.eng.opts.Credits == 0 || g.credits >= len(queue) {
		// Flow control off, or the budget covers the whole backlog:
		// nothing to hide, skip the filter entirely.
		g.win.scan(drv, visit)
		return
	}
	// Stamp the credit window — the first `credits` FIFO entries — with
	// a fresh generation so the scan filters with one comparison per
	// wrapper: O(credits + window), not a membership probe per entry.
	e := g.eng
	e.creditGen++
	if g.credits > 0 {
		for _, pw := range queue[:g.credits] {
			pw.creditStamp = e.creditGen
		}
	}
	g.win.scan(drv, func(pw *packet) bool {
		if pw.kind == kindData && pw.creditStamp != e.creditGen {
			return true // beyond the credit window: invisible
		}
		return visit(pw)
	})
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
// nominal capability report, the sampled functional bandwidth and the
// current backlog. The backlog comes from the engine's incremental
// counters: railInfo runs on the NIC-idle hot path, once per gate per
// pump sweep.
func (e *Engine) railInfo(r *rail) sched.RailInfo {
	return sched.RailInfo{
		Index:       r.idx,
		Name:        r.drv.Name(),
		Caps:        r.drv.Caps(),
		Sampled:     r.sampler.estimate(),
		Backlog:     r.pinned + e.pendingCommon,
		Failed:      r.failed,
		Retransmits: r.retrans,
	}
}

// railInfos reports every attached rail, in attach order. The slice is
// engine-owned scratch, valid until the next call: strategies receive it
// for the duration of one PlanBody and must not retain it (the spileak
// analyzer enforces exactly that contract).
func (e *Engine) railInfos() []sched.RailInfo {
	if cap(e.railScratch) < len(e.rails) {
		e.railScratch = make([]sched.RailInfo, len(e.rails))
	}
	out := e.railScratch[:len(e.rails)]
	for i, r := range e.rails {
		out[i] = e.railInfo(r)
	}
	return out
}

// electOutput runs the strategy for one (gate, rail) pair and converts
// its election into an output that records both, enforcing the SPI
// contract: a pick must still be in the rail's view (not stale), appear
// once (no duplication), and fit the rail's gather capacity (sendable).
// Invalid picks are dropped and their wrappers stay in the window — no
// strategy can lose or duplicate application data.
func (e *Engine) electOutput(g *Gate, r *rail) *output {
	info := e.railInfo(r)
	el := e.strat.Elect(&g.views[r.idx], info)
	if el.Empty() {
		return nil
	}
	// Membership check without allocating a set: stamp the current view
	// with a fresh generation; a valid pick carries the stamp, which is
	// cleared on pick so duplicates mismatch. Picks from another engine
	// (a strategy value shared between engines) are rejected explicitly
	// since their stamps are not ours. Only flow-control-eligible
	// wrappers are stamped — a strategy that somehow picks a wrapper
	// beyond the peer's credit budget loses the pick, not the credit
	// invariant.
	e.electGen++
	g.scanEligible(r.idx, func(pw *packet) bool {
		pw.gen = e.electGen
		return true
	})
	maxSegs := info.Caps.MaxSegments
	if e.opts.Reliability && maxSegs > 1 {
		maxSegs-- // one gather slot is spent on the link framing header
	}
	out := e.newOutput()
	out.gate, out.rail = g, r
	for _, w := range el.Wrappers() {
		pw, ok := w.Ref.(*packet)
		if !ok || pw.gate == nil || pw.gate.eng != e || pw.gen != e.electGen {
			continue // foreign, stale or duplicated pick
		}
		if out.segs+pw.segCount() > maxSegs {
			continue // the rail cannot gather this train; leave it behind
		}
		pw.gen = 0
		out.add(pw)
	}
	if len(out.entries) == 0 {
		e.freeOutput(out)
		return nil
	}
	return out
}

// planBody asks the strategy for a rendezvous body plan and validates
// it: shares must cover [0, size) exactly, in ascending offset order, on
// attached rails. Invalid plans (and non-planner strategies) stream over
// the best single rail. The plan is storage of the strategy's or of the
// engine's, valid until the next planBody: the caller copies it.
func (e *Engine) planBody(size int) []sched.BodyShare {
	rails := e.railInfos()
	// Failed rails are withdrawn from the offer: a mid-flow body plan
	// must re-elect the survivors. RailInfo.Index keeps the original
	// attach-order value, so shares still address the right driver. With
	// no failure (the common case) the survey is passed through as-is.
	alive := rails
	for _, r := range rails {
		if r.Failed {
			alive = rails[:0:0]
			for _, r := range rails {
				if !r.Failed {
					alive = append(alive, r)
				}
			}
			break
		}
	}
	if len(alive) == 0 {
		alive = rails // cannot happen (the last rail never fails), but never plan over nothing
	}
	if bp, ok := e.strat.(sched.BodyPlanner); ok && len(alive) > 1 {
		if plan := bp.PlanBody(alive, size); e.validPlan(plan, size) {
			return plan
		}
	}
	// sched.SingleRail, in the engine's own storage.
	e.singlePlan[0] = sched.BodyShare{Rail: sched.BestRail(alive), Size: size}
	return e.singlePlan[:]
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
