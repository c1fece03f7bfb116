package core

import (
	"fmt"
	"slices"
	"testing"

	"nmad/internal/drivers"
	"nmad/internal/sim"
	"nmad/internal/simnet"
	"nmad/sched"
)

// The eligible view and its shortcuts. scanEligible stops once it has
// shown every wrapper it can (the credit-starved gate walks nothing),
// prepare skips its walk while no queued data wrapper reaches the
// smallest rendezvous threshold, and electOutput validates picks against
// the stamps the strategy's own Scan left. The differential test below
// holds all three to the rules they replace, written out longhand.

// randomPicker elects a random subset of what Scan shows, within the
// rail's gather capacity, once armed; unarmed it elects nothing, so
// submissions pile up in the window.
type randomPicker struct {
	rng   *sim.RNG
	armed bool
}

func (*randomPicker) Name() string { return "random-picker" }

func (s *randomPicker) Elect(w sched.Window, rail sched.RailInfo) *sched.Election {
	if !s.armed {
		return nil
	}
	el := new(sched.Election)
	w.Scan(func(wr sched.Wrapper) bool {
		if s.rng.Intn(2) == 0 && el.Segments()+wr.Segments <= rail.Caps.MaxSegments {
			el.Pick(wr)
		}
		return true
	})
	return el
}

// eligibleByRule is the eligible view by its definition: a full window
// scan for the rail, keeping control entries and body chunks, and data
// wrappers only among the first `credits` entries of the data FIFO
// (all of them when flow control is off or the budget covers the FIFO).
func eligibleByRule(g *Gate, drv int) []*packet {
	queue := g.dataWindow()
	all := g.eng.opts.Credits == 0 || g.credits >= len(queue)
	inBudget := map[*packet]bool{}
	for i := 0; i < g.credits && i < len(queue); i++ {
		inBudget[queue[i]] = true
	}
	var out []*packet
	g.win.scan(drv, func(pw *packet) bool {
		if all || pw.kind != kindData || inBudget[pw] {
			out = append(out, pw)
		}
		return true
	})
	return out
}

// scanned collects what the rail's strategy view shows, stopping after
// limit wrappers (a visit returning false).
func scanned(g *Gate, drv, limit int) []*packet {
	var out []*packet
	g.views[drv].Scan(func(w sched.Wrapper) bool {
		out = append(out, w.Ref.(*packet))
		return len(out) < limit
	})
	return out
}

// checkWindow asserts the view against the rule on every rail, at a
// random early stop too, and the two window invariants the shortcuts
// rest on.
func checkWindow(t *testing.T, rng *sim.RNG, e *Engine, g *Gate, step string) {
	t.Helper()
	for drv := range e.rails {
		want := eligibleByRule(g, drv)
		if got := scanned(g, drv, len(want)+1); !slices.Equal(got, want) {
			t.Fatalf("%s: rail %d credits %d shows %d wrappers, the rule %d", step, drv, g.credits, len(got), len(want))
		}
		if len(want) > 0 {
			stop := 1 + rng.Intn(len(want))
			if got := scanned(g, drv, stop); !slices.Equal(got, want[:stop]) {
				t.Fatalf("%s: rail %d stopped after %d shows %d wrappers", step, drv, stop, len(got))
			}
		}
	}
	bigAt := 0 // the smallest positive threshold, from the drivers themselves
	for _, r := range e.rails {
		if th := r.drv.Caps().RdvThreshold; th > 0 && (bigAt == 0 || th < bigAt) {
			bigAt = th
		}
	}
	nonData, big := 0, 0
	for _, list := range append([][]*packet{g.win.common}, g.win.perDriver...) {
		for _, pw := range list {
			switch {
			case pw.kind != kindData:
				nonData++
			case bigAt > 0 && pw.payloadLen() >= bigAt:
				big++
			}
		}
	}
	if e.opts.Credits > 0 && nonData != g.win.size()-len(g.dataWindow()) {
		t.Fatalf("%s: %d non-data wrappers, window size %d minus FIFO %d", step, nonData, g.win.size(), len(g.dataWindow()))
	}
	if g.win.big != big || g.win.bigAt != bigAt {
		t.Fatalf("%s: window counts %d wrappers from %d B, a recount %d from %d B", step, g.win.big, g.win.bigAt, big, bigAt)
	}
}

// TestEligibleViewMatchesTheRule drives random gates — data, rendezvous,
// grant, ack, credit and body-chunk wrappers, pinned and common, over one
// to three rails attached while the gate fills, credit budgets from 0 to
// past the backlog, outputs elected, staged and unstaged — and after
// every step holds the eligible view, its early stop, the election's
// validation and the window counts to their definitions.
func TestEligibleViewMatchesTheRule(t *testing.T) {
	profiles := []simnet.Profile{simnet.MX10G(), simnet.QsNetII(), simnet.TCPGbE(), simnet.SISCI()}
	ctrlKinds := []entryKind{kindRTS, kindCTS, kindAck, kindCredit, kindChunk}
	for seed := uint64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := sim.NewRNG(seed)
			w := sim.NewWorld()
			f := simnet.NewFabric(w, 2, simnet.DefaultHost())
			for i, n := 0, 1+rng.Intn(3); i < n; i++ {
				if _, err := f.AddNetwork(profiles[rng.Intn(len(profiles))]); err != nil {
					t.Fatal(err)
				}
			}
			picker := &randomPicker{rng: rng}
			opts := DefaultOptions()
			opts.StrategyImpl = picker
			if seed%4 != 0 {
				opts.Credits = 1 + rng.Intn(16)
			}
			e, err := New(f, 0, opts)
			if err != nil {
				t.Fatal(err)
			}
			attach := func() {
				drv, err := drivers.New(f.Networks()[len(e.rails)], 0)
				if err != nil {
					t.Fatal(err)
				}
				if err := e.Attach(drv); err != nil {
					t.Fatal(err)
				}
				// Claim the rail: a kick neither pumps nor stages it, so
				// the test alone elects.
				e.rails[len(e.rails)-1].feeding++
			}
			attach()
			g := e.Gate(1)
			for step := 0; step < 80; step++ {
				var name string
				driver := anyDriver
				if rng.Intn(3) == 0 {
					driver = rng.Intn(len(e.rails))
				}
				switch op := rng.Intn(10); {
				case op < 4:
					n := 1 + rng.Intn(2<<10)
					switch rng.Intn(6) {
					case 0, 1:
						n = rng.Range(8<<10, 40<<10) // around the thresholds
					case 2:
						n = e.rails[rng.Intn(len(e.rails))].drv.Caps().RdvThreshold // on one
					}
					name = fmt.Sprintf("step %d: data %d B on %d", step, n, driver)
					e.submit(e.newPacket(g, header{kind: kindData, tag: Tag(rng.Intn(4)), length: uint32(n)}, driver, iovec{make([]byte, n)}, nil))
				case op < 6:
					kind := ctrlKinds[rng.Intn(len(ctrlKinds))]
					name = fmt.Sprintf("step %d: %v on %d", step, kind, driver)
					e.submit(e.newPacket(g, header{kind: kind, flags: flagPriority | flagUnordered}, driver, nil, nil))
				case op < 8:
					r := e.rails[rng.Intn(len(e.rails))]
					name = fmt.Sprintf("step %d: elect on %d", step, r.idx)
					shown := eligibleByRule(g, r.idx)
					picker.armed = true
					out := e.electOutput(g, r)
					picker.armed = false
					if out == nil {
						break
					}
					for _, pw := range out.entries {
						if !slices.Contains(shown, pw) {
							t.Fatalf("%s: elected a wrapper the view did not show", name)
						}
					}
					e.account(out)
					if r.staged == nil && rng.Intn(2) == 0 {
						r.staged = out
						break
					}
					for _, pw := range out.entries {
						e.freePacket(pw)
					}
					e.freeOutput(out)
				case op < 9:
					r := e.rails[rng.Intn(len(e.rails))]
					name = fmt.Sprintf("step %d: unstage %d", step, r.idx)
					e.unstage(r)
				default:
					r := e.rails[rng.Intn(len(e.rails))]
					name = fmt.Sprintf("step %d: prepare %d", step, r.idx)
					e.prepare(g, r)
					th := r.drv.Caps().RdvThreshold
					g.win.scan(r.idx, func(pw *packet) bool {
						if th > 0 && pw.kind == kindData && pw.payloadLen() >= th {
							t.Fatalf("%s: a %d B data wrapper is left at a %d B threshold", name, pw.payloadLen(), th)
						}
						return true
					})
				}
				if len(e.rails) < len(f.Networks()) && rng.Intn(10) == 0 {
					attach()
					name += ", attach"
				}
				if opts.Credits > 0 {
					g.credits = rng.Intn(len(g.dataWindow()) + 3)
				}
				checkWindow(t, rng, e, g, name)
			}
		})
	}
}

// creditStarvedGate is one engine of two claimed rails with 64 queued
// 1 KB data wrappers on one gate and the given credit budget. The oldest
// `pinned` wrappers are pinned to rail 1; the rest ride the common list.
// It returns rail 0.
func creditStarvedGate(credits, pinned int) (*Engine, *rail) {
	opts := DefaultOptions()
	opts.Credits = 32
	_, e, _ := allocEngines(opts, simnet.MX10G(), simnet.QsNetII())
	for _, r := range e.rails {
		r.feeding++ // nothing drains the window but the attempts below
	}
	g := e.Gate(1)
	for i := 0; i < 64; i++ {
		driver := anyDriver
		if i < pinned {
			driver = 1
		}
		e.submit(e.newPacket(g, header{kind: kindData, tag: 1, seq: seqNum(i), length: 1 << 10}, driver, iovec{make([]byte, 1<<10)}, nil))
	}
	g.credits = credits
	return e, e.rails[0]
}

// electAttempt is one election attempt on the rail, the elected output
// (if any) handed back unsent: the window keeps its wrappers.
func electAttempt(e *Engine, r *rail) {
	if out := e.elect(r); out != nil {
		e.freeOutput(out)
	}
}

// TestElectCreditStarvedAllocatesNothing pins the attempt the benchmark
// below times: out of credits it elects nothing, with eight it elects
// the eight oldest wrappers, and neither makes a heap object.
func TestElectCreditStarvedAllocatesNothing(t *testing.T) {
	for _, credits := range []int{0, 8} {
		e, r := creditStarvedGate(credits, 0)
		elected := 0
		if out := e.elect(r); out != nil {
			elected = len(out.entries)
			e.freeOutput(out)
		}
		if elected != credits {
			t.Errorf("credits %d: elected %d wrappers", credits, elected)
		}
		if allocs := testing.AllocsPerRun(100, func() { electAttempt(e, r) }); allocs != 0 {
			t.Errorf("credits %d: %.1f allocations per attempt, want 0", credits, allocs)
		}
	}
}

// BenchmarkElectCreditStarved times one election attempt on a gate with
// 64 queued 1 KB data wrappers: out of credits, where the attempt shows
// the strategy nothing, and with eight credits.
func BenchmarkElectCreditStarved(b *testing.B) {
	for _, credits := range []int{0, 8} {
		b.Run(fmt.Sprintf("credits=%d", credits), func(b *testing.B) {
			e, r := creditStarvedGate(credits, 0)
			b.ReportAllocs()
			for b.Loop() {
				electAttempt(e, r)
			}
		})
	}
}

// TestCreditStarvedScanStopsAtTheLastShown: the filtered scan reads no
// window slot past the last wrapper it can show, and an election attempt
// no slot at all past those. The slots past that point are poisoned with
// nil, which a walk reaching them would dereference; the credit FIFO
// keeps the wrappers, so the counts the scan stops by are unchanged.
// With wrappers pinned to rail 1, part of the credit budget is one rail 0
// cannot see.
func TestCreditStarvedScanStopsAtTheLastShown(t *testing.T) {
	for _, tc := range []struct{ credits, pinned int }{{0, 0}, {8, 0}, {8, 4}} {
		e, r := creditStarvedGate(tc.credits, tc.pinned)
		g := e.Gate(1)
		shown := tc.credits - tc.pinned
		want := slices.Clone(g.win.common[:shown])
		clear(g.win.common[shown:])
		if got := scanned(g, r.idx, len(g.win.common)); !slices.Equal(got, want) {
			t.Errorf("%+v: rail 0 shows %d wrappers, want the %d oldest common ones", tc, len(got), shown)
		}
		electAttempt(e, r)
	}
}

// viewThief elects everything it is shown, and during the election also
// scans views it was not handed — another rail's of the same gate and
// another gate's — which the SPI forbids.
type viewThief struct{ others []*windowView }

func (*viewThief) Name() string { return "view-thief" }

func (s *viewThief) Elect(w sched.Window, _ sched.RailInfo) *sched.Election {
	el := new(sched.Election)
	pick := func(wr sched.Wrapper) bool {
		el.Pick(wr)
		return true
	}
	w.Scan(pick)
	for _, v := range s.others {
		v.Scan(pick)
	}
	return el
}

// TestElectionRejectsPicksFromOtherViews: the stamp a Scan leaves is the
// engine's election generation, the same on every view scanned during
// one Elect call, so the validation also checks gate and rail — a
// wrapper of another gate must not leave on this gate's packet, nor one
// pinned to another rail on this one.
func TestElectionRejectsPicksFromOtherViews(t *testing.T) {
	thief := &viewThief{}
	opts := DefaultOptions()
	opts.StrategyImpl = thief
	w := sim.NewWorld()
	f := simnet.NewFabric(w, 3, simnet.DefaultHost())
	for _, p := range []simnet.Profile{simnet.MX10G(), simnet.QsNetII()} {
		if _, err := f.AddNetwork(p); err != nil {
			t.Fatal(err)
		}
	}
	e, err := New(f, 0, opts)
	if err == nil {
		err = e.AttachFabric(f)
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range e.rails {
		r.feeding++ // the test alone elects
	}
	submit := func(g *Gate, driver int) *packet {
		pw := e.newPacket(g, header{kind: kindData, tag: 1, length: 8}, driver, iovec{make([]byte, 8)}, nil)
		e.submit(pw)
		return pw
	}
	g1, g2 := e.Gate(1), e.Gate(2)
	mine := submit(g1, anyDriver)
	submit(g1, 1)
	submit(g2, anyDriver)
	thief.others = []*windowView{&g1.views[1], &g2.views[0]}
	out := e.electOutput(g1, e.rails[0])
	if out == nil || !slices.Equal(out.entries, []*packet{mine}) {
		t.Fatal("the election kept a wrapper of another gate or rail, or lost gate 1's common wrapper")
	}
}
