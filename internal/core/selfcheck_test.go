package core

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"nmad/internal/sim"
	"nmad/internal/simnet"
)

// The engine self-checks. Every engine a test of this package builds —
// directly, or through a harness in the external tests (the scenario
// corpus, replayed recordings, the figures) — is seen by newEngineHook,
// and its world is watched (sim.World.Watch) by three checks:
//
//   - The just-in-time checker runs before the clock leaves each instant.
//     The transfer layer hands a rail the next packet as soon as it goes
//     idle, so once an instant's events have fired no rail may sit idle —
//     not failed, no output claiming or staged for it, its NIC polling
//     idle — while a gate's eligible view shows it a wrapper it can
//     gather, and no failed or idle rail may hold a staged output.
//   - The one-clock check runs at the same moments, on each reliable
//     engine whose timer queue took or fired a step since it last looked.
//     Every unacked link frame has exactly one retransmit clock: a
//     transmission in flight, whose completion arms the check, or else
//     one live check entry in the queue.
//   - The drain audit runs when Run empties the queue. Each free list
//     holds every record it ever made (its core.misses.* count) minus
//     those engine state still refers to; no engine has a deferred step
//     queued or a post waiting, each having had its one kernel event; no
//     link frame stays unacked; every submitted wrapper was elected or is
//     still windowed; no gate keeps a flow entry on MAD-MPI's collective
//     tag lane; and the landing credits between two engines are all
//     accounted for.
//
// A violation is reported with the test that built the world, and fails
// the package (TestMain) unless a test took it first (takeSelfCheck).
// The checks only read, bump no work counter (watch turns counting off)
// and allocate nothing while the engines behave, so every allocation pin
// holds with them on.

func TestMain(m *testing.M) {
	newEngineHook = checks.add
	code := m.Run()
	if len(checks.failed) > 0 {
		fmt.Fprintf(os.Stderr, "engine self-checks failed %d time(s):\n  %s\n", len(checks.failed), strings.Join(checks.failed, "\n  "))
		code = 1
	}
	os.Exit(code)
}

// selfChecks is the registry of checked worlds. Worlds are kept for the
// test that built them: the first engine of the next test drops them.
type selfChecks struct {
	test   string
	worlds map[*sim.World]*checkedWorld
	failed []string
}

var checks selfChecks

// checkedWorld is one watched world: its engines, the Work its free-list
// misses are counted in, and what that Work read when the first engine
// was built.
type checkedWorld struct {
	w       *sim.World
	test    string
	engines []*Engine
	work    *sim.Work
	base    [len(poolCounters)]uint64
	// report receives each violation; a test of the checks swaps it.
	report func(msg string)

	// The just-in-time scan's state, with its visitor bound once so that
	// a scan allocates nothing, and the audit's scratch.
	maxSegs   int
	gatherOK  bool
	gatherFn  func(pw *packet) bool
	drainRdvs []*rdvSend

	// The one-clock check's state, per engine in engines order: its
	// timer queue's last push and length at its last scan; and its
	// scratch, the frames of the live checks.
	pushed []uint32
	queued []int
	live   []*linkFrame
}

// collLane marks a tag of MAD-MPI's collective lane: the top bit of the
// tag's upper word (madmpi's collLaneBit). Collective steps go out
// one-shot (IsendvOnceInto), so no gate keeps a flow entry for one. A
// replay sends recorded steps as plain ordered sends, which would keep
// entries; no checked world replays collective traffic.
const collLane = Tag(1) << 63

// poolCounters names the nine free lists' miss counters, in the order
// the audit reports them.
var poolCounters = [...]string{
	"core.misses.packets", "core.misses.outputs", "core.misses.in_entries",
	"core.misses.send_requests", "core.misses.recv_requests",
	"core.misses.rdv_sends", "core.misses.rdv_recvs",
	"core.misses.rdma_chains", "core.misses.link_frames",
}

// add is newEngineHook: it files e under its world, watching the world
// at its first engine. A world that counts no work is given a Work of
// its own, so the audit can read how many records the lists made.
func (c *selfChecks) add(e *Engine) {
	test := testName()
	if test != c.test || c.worlds == nil {
		c.test, c.worlds = test, map[*sim.World]*checkedWorld{}
	}
	w := e.world
	cw := c.worlds[w]
	if cw == nil {
		cw = &checkedWorld{w: w, test: test}
		cw.report = cw.fail
		cw.gatherFn = cw.gatherable
		if cw.work = w.CountWork(nil); cw.work == nil {
			cw.work = new(sim.Work)
		}
		w.CountWork(cw.work)
		for i, name := range poolCounters {
			cw.base[i] = cw.work.Get(name)
		}
		c.worlds[w] = cw
		w.Watch(cw.watch)
	}
	cw.engines = append(cw.engines, e)
	cw.pushed, cw.queued = append(cw.pushed, 0), append(cw.queued, 0)
}

// testName is the Test, Fuzz or Benchmark function on the calling stack.
func testName() string {
	var pcs [64]uintptr
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs[:])])
	for {
		f, more := frames.Next()
		name := f.Function[strings.LastIndexByte(f.Function, '/')+1:]
		if _, fn, ok := strings.Cut(name, "."); ok {
			fn, _, _ = strings.Cut(fn, ".")
			for _, prefix := range []string{"Test", "Fuzz", "Benchmark"} {
				if strings.HasPrefix(fn, prefix) {
					return fn
				}
			}
		}
		if !more {
			return "(no test on the stack)"
		}
	}
}

func (cw *checkedWorld) fail(msg string) {
	checks.failed = append(checks.failed, cw.test+": "+msg)
}

// takeSelfCheck returns the violations reported in worlds that test
// built and forgets them, for the test to report as its own. The test is
// done with those worlds: they are dropped, so a fuzz target that takes
// its violations after each input keeps no world of the last one.
func takeSelfCheck(test string) []string {
	for w, cw := range checks.worlds {
		if cw.test == test {
			delete(checks.worlds, w)
		}
	}
	var took []string
	kept := checks.failed[:0]
	for _, msg := range checks.failed {
		if strings.HasPrefix(msg, test+": ") {
			took = append(took, msg)
		} else {
			kept = append(kept, msg)
		}
	}
	checks.failed = kept
	return took
}

// watch is the world's watcher. It turns work counting off while it
// reads: scanEligible counts the walks it makes.
func (cw *checkedWorld) watch(drained bool) {
	defer cw.w.CountWork(cw.w.CountWork(nil))
	if drained {
		cw.audit()
		return
	}
	for i, e := range cw.engines {
		// Every submitted wrapper not yet elected is windowed (the
		// audit holds that), and only anticipation stages: an engine
		// with neither has nothing to check.
		if e.stats.Submitted != e.stats.EntriesSent || e.opts.Anticipate {
			cw.justInTime(e)
		}
		// A frame gains or loses a clock only when a check is pushed
		// or fires, which may retransmit or fail a rail: an engine whose
		// queue neither took nor fired a step since its last scan has
		// nothing new to check.
		if n := queuedLen(e); e.opts.Reliability && (e.timerSeq != cw.pushed[i] || n != cw.queued[i]) {
			cw.pushed[i], cw.queued[i] = e.timerSeq, n
			cw.oneClock(e)
		}
	}
}

// oneClock reports every unacked link frame of e whose live check entries
// plus one for any transmission in flight do not add up to one.
func (cw *checkedWorld) oneClock(e *Engine) {
	live := cw.live[:0]
	for _, q := range queued(e) {
		for _, t := range q {
			if c, ok := t.ref.(*linkFrame); ok && c != nil && t.arg == c.gen {
				live = append(live, c)
			}
		}
	}
	cw.live = live
	for _, g := range e.gateOrder {
		for _, fr := range g.ltx.unacked {
			clocks := 0
			if fr.sending > 0 {
				clocks++
			}
			for _, c := range live {
				if c == fr {
					clocks++
				}
			}
			if clocks != 1 {
				cw.report(fmt.Sprintf("one clock: at %v node %d frame %d to node %d has %d retransmit clocks, %d transmission(s) in flight",
					e.world.Now(), e.node.ID, fr.seq, g.peer, clocks, fr.sending))
			}
		}
	}
}

// queued returns e's queued timer entries: its run's, then its heap's.
func queued(e *Engine) [2][]timer { return [2][]timer{e.run.items[e.run.head:], e.timers} }

func queuedLen(e *Engine) int { return len(e.run.items) - e.run.head + len(e.timers) }

// justInTime reports every idle rail of e that a gate shows a wrapper it
// can gather — one within the rail's gather capacity, less the slot the
// link header takes under reliability (electOutput's rule) — and every
// failed or idle rail that holds a staged output.
func (cw *checkedWorld) justInTime(e *Engine) {
	for _, r := range e.rails {
		if r.staged != nil && (r.failed || r.feeding == 0 && r.drv.Poll()) {
			cw.report(fmt.Sprintf("just-in-time: at %v node %d rail %d (%s) holds a staged output, failed or idle",
				e.world.Now(), e.node.ID, r.idx, r.drv.Name()))
		}
		if r.failed || r.feeding > 0 || r.staged != nil || !r.drv.Poll() {
			continue
		}
		cw.maxSegs = r.drv.Caps().MaxSegments
		if e.opts.Reliability && cw.maxSegs > 1 {
			cw.maxSegs--
		}
		for _, g := range e.gateOrder {
			if g.win.pending(r.idx) == 0 {
				continue
			}
			cw.gatherOK = false
			g.scanEligible(r.idx, cw.gatherFn)
			if cw.gatherOK {
				cw.report(fmt.Sprintf("just-in-time: at %v node %d rail %d (%s) is idle while gate %d->%d shows it a wrapper",
					e.world.Now(), e.node.ID, r.idx, r.drv.Name(), e.node.ID, g.peer))
			}
		}
	}
}

func (cw *checkedWorld) gatherable(pw *packet) bool {
	cw.gatherOK = pw.segCount() <= cw.maxSegs
	return !cw.gatherOK
}

// audit is the drain audit over every engine of the world.
func (cw *checkedWorld) audit() {
	var listed, held [len(poolCounters)]uint64
	for _, e := range cw.engines {
		l, h := cw.records(e)
		for i := range listed {
			listed[i] += l[i]
			held[i] += h[i]
		}
		cw.conservation(e)
		if q, p := queuedLen(e), len(e.posts.items)-e.posts.head; q+p > 0 {
			cw.report(fmt.Sprintf("drain audit: node %d: %d deferred step(s) queued, %d post(s) waiting, with no event pending", e.node.ID, q, p))
		}
	}
	for i, name := range poolCounters {
		made := cw.work.Get(name) - cw.base[i]
		if made != listed[i]+held[i] {
			cw.report(fmt.Sprintf("drain audit: %s: %d records made, %d on the free lists, %d held by engine state: %d leaked",
				name, made, listed[i], held[i], int64(made)-int64(listed[i]+held[i])))
		}
	}
	cw.credits()
}

// records counts, per free list in poolCounters order, the records of e
// on the list and those its state still refers to once the queue is
// empty. No event is pending, so no NIC holds an output, a chain or a
// transmission, and no timer entry a retired rdvRecv or link frame (the
// audit reports any entry left); no process is alive, so no blocking
// call holds a request. What is left is queued work: windowed and staged wrappers,
// parked arrivals, live rendezvous transactions (and a retired one whose
// eager chunks still wait in a window), unacked link frames.
func (cw *checkedWorld) records(e *Engine) (listed, held [len(poolCounters)]uint64) {
	listed = [...]uint64{
		uint64(e.freePkts.len()), uint64(e.freeOuts.len()), uint64(e.freeEnts.len()),
		uint64(len(e.freeSends)), uint64(len(e.freeRecvs)),
		uint64(e.freeRdvSends.len()), uint64(e.freeRdvRecvs.len()),
		uint64(e.freeChains.len()), uint64(e.freeLinks.len()),
	}
	retired := cw.drainRdvs[:0]
	note := func(pw *packet) {
		held[0]++
		if rs := pw.rdv; rs != nil && !rs.live && !slices.Contains(retired, rs) {
			retired = append(retired, rs)
		}
	}
	for _, r := range e.rails {
		if out := r.staged; out != nil {
			held[1]++
			for _, pw := range out.entries {
				note(pw)
			}
		}
	}
	for _, g := range e.gateOrder {
		for _, pw := range g.win.common {
			note(pw)
		}
		for _, l := range g.win.perDriver {
			for _, pw := range l {
				note(pw)
			}
		}
		held[2] += uint64(len(g.unexpected) + len(g.held))
		lane, first := 0, Tag(0)
		for _, l := range [...][]flowState{g.flows.slots[:g.flows.n], g.flows.more} {
			for _, f := range l {
				if f.tag&collLane != 0 {
					if lane++; lane == 1 {
						first = f.tag
					}
				}
			}
		}
		if lane > 0 {
			cw.report(fmt.Sprintf("drain audit: node %d: gate to node %d keeps %d flow entries for collective tags, the first %#x", e.node.ID, g.peer, lane, first))
		}
		held[8] += uint64(len(g.ltx.unacked))
		if len(g.ltx.unacked) > 0 {
			cw.report(fmt.Sprintf("drain audit: node %d: %d link frame(s) to node %d unacked with nothing pending", e.node.ID, len(g.ltx.unacked), g.peer))
		}
	}
	held[5] += uint64(len(e.rdvSend) + len(retired))
	held[6] += uint64(len(e.rdvRecv))
	clear(retired)
	cw.drainRdvs = retired[:0]
	return listed, held
}

// conservation checks e's wrapper count: every wrapper submitted was
// elected (EntriesSent, staged outputs included) or still waits in a
// window.
func (cw *checkedWorld) conservation(e *Engine) {
	windowed := 0
	for _, g := range e.gateOrder {
		windowed += g.win.size()
	}
	if e.stats.Submitted != e.stats.EntriesSent+windowed {
		cw.report(fmt.Sprintf("drain audit: node %d: Submitted %d, but EntriesSent %d + %d windowed", e.node.ID, e.stats.Submitted, e.stats.EntriesSent, windowed))
	}
}

// credits checks every credited direction between two engines of the
// world: the sender's budget, the data wrappers it has elected that the
// receiver has not consumed, the receiver's unreturned tally and the
// credit entries on their way back add up to the budget.
func (cw *checkedWorld) credits() {
	for _, a := range cw.engines {
		if a.opts.Credits == 0 {
			continue
		}
		for _, ga := range a.gateOrder {
			b := cw.engineOn(ga.peer)
			if b == nil || b.opts.Credits != a.opts.Credits {
				continue
			}
			gb := b.gates[a.node.ID]
			if gb != nil && gb.protoErrs > 0 {
				continue // the receiver saw traffic the sender's books do not show
			}
			sum := ga.credits
			for _, r := range a.rails {
				if out := r.staged; out != nil && out.gate == ga {
					sum += countKind(out.entries, kindData)
				}
			}
			if gb != nil {
				sum += gb.creditOwed
				sum += dataEntries(gb.unexpected) + dataEntries(gb.held)
				sum += creditsQueued(gb)
			}
			if sum != a.opts.Credits {
				cw.report(fmt.Sprintf("drain audit: credits %d->%d: %d accounted for, budget %d", a.node.ID, ga.peer, sum, a.opts.Credits))
			}
		}
	}
}

// engineOn returns the world's one engine on node n, or nil.
func (cw *checkedWorld) engineOn(n simnet.NodeID) *Engine {
	var found *Engine
	for _, e := range cw.engines {
		if e.node.ID == n {
			if found != nil {
				return nil
			}
			found = e
		}
	}
	return found
}

func countKind(l []*packet, k entryKind) int {
	n := 0
	for _, pw := range l {
		if pw.kind == k {
			n++
		}
	}
	return n
}

// dataEntries counts the data wrappers among parked arrivals.
func dataEntries(l []*inEntry) int {
	n := 0
	for _, ent := range l {
		if ent.h.kind == kindData {
			n++
		}
	}
	return n
}

// creditsQueued sums the credit entries g's engine has yet to send:
// windowed, or in an output staged for the gate.
func creditsQueued(g *Gate) int {
	n := 0
	add := func(pw *packet) {
		if pw.kind == kindCredit {
			n += int(pw.size)
		}
	}
	for _, pw := range g.win.common {
		add(pw)
	}
	for _, l := range g.win.perDriver {
		for _, pw := range l {
			add(pw)
		}
	}
	for _, r := range g.eng.rails {
		if out := r.staged; out != nil && out.gate == g {
			for _, pw := range out.entries {
				add(pw)
			}
		}
	}
	return n
}

// captureChecks makes the self-checks of w report to the returned slice
// instead of failing the package.
func captureChecks(t *testing.T, w *sim.World) *[]string {
	t.Helper()
	cw := checks.worlds[w]
	if cw == nil {
		t.Fatal("the world is not watched: no engine of it went through New's hook")
	}
	var got []string
	cw.report = func(msg string) { got = append(got, msg) }
	return &got
}

// TestJustInTimeCatchesAnIdleRailWithWork: a wrapper put in a gate's
// window without the kick that pumps the rails sits there while the one
// rail is idle. The checker names the instant, the rail and the gate
// before the clock moves on — and nothing else is wrong with the world.
func TestJustInTimeCatchesAnIdleRailWithWork(t *testing.T) {
	w, e0, _ := testWorld(t, DefaultOptions())
	got := captureChecks(t, w)
	g := e0.Gate(1)
	g.win.push(e0.newPacket(g, header{kind: kindData, tag: 7, length: 64}, anyDriver, iovec{make([]byte, 64)}, nil))
	e0.stats.Submitted++ // as submit would have
	w.At(5*sim.Nanosecond, func() {})
	run(t, w)
	want := fmt.Sprintf("just-in-time: at %v node 0 rail 0 (%s) is idle while gate 0->1 shows it a wrapper", sim.Time(0), e0.rails[0].drv.Name())
	if len(*got) != 1 || (*got)[0] != want {
		t.Errorf("the self-checks reported %q, want exactly %q", *got, want)
	}
}

// TestDrainAuditNamesALeakedRecord: a record taken from a free list and
// dropped is one the audit finds neither on its list nor in engine
// state, for each of the nine lists; so is a spare of a carved slab that
// never reached its list.
func TestDrainAuditNamesALeakedRecord(t *testing.T) {
	type leak struct {
		name, list string // the subtest, and the list the audit names
		drop       func(e *Engine)
	}
	var leaks []leak
	for i, drop := range []func(e *Engine){
		func(e *Engine) { e.freePkts.get(e.world, cMissPackets) },
		func(e *Engine) { e.freeOuts.get(e.world, cMissOutputs) },
		func(e *Engine) { e.freeEnts.get(e.world, cMissInEntries) },
		func(e *Engine) { e.freeSends.get(e.world, cMissSends) },
		func(e *Engine) { e.freeRecvs.get(e.world, cMissRecvs) },
		func(e *Engine) { e.freeRdvSends.get(e.world, cMissRdvSends) },
		func(e *Engine) { e.freeRdvRecvs.get(e.world, cMissRdvRecvs) },
		func(e *Engine) { e.freeChains.get(e.world, cMissChains) },
		func(e *Engine) { e.freeLinks.get(e.world, cMissLinks) },
	} {
		leaks = append(leaks, leak{poolCounters[i], poolCounters[i], drop})
	}
	// A slab of two whose first record goes back on the list while the
	// spare linked behind it is dropped.
	leaks = append(leaks, leak{"carved_spare", "core.misses.outputs", func(e *Engine) {
		e.freeOuts.slab = 1
		e.freeOuts.put(e.freeOuts.carve(e.world, cMissOutputs))
	}})
	for _, l := range leaks {
		t.Run(l.name, func(t *testing.T) {
			w, e0, e1 := testWorld(t, DefaultOptions())
			got := captureChecks(t, w)
			w.Spawn("pingpong", func(p *sim.Proc) {
				if err := e0.Gate(1).Send(p, 1, make([]byte, 64)); err != nil {
					t.Error(err)
				}
			})
			w.Spawn("recv", func(p *sim.Proc) {
				if _, err := e1.Gate(0).Recv(p, 1, make([]byte, 64)); err != nil {
					t.Error(err)
				}
				l.drop(e1)
			})
			run(t, w)
			want := fmt.Sprintf("drain audit: %s: ", l.list)
			if len(*got) != 1 || !strings.HasPrefix((*got)[0], want) || !strings.HasSuffix((*got)[0], ": 1 leaked") {
				t.Errorf("the self-checks reported %q, want one leak of %s", *got, l.list)
			}
		})
	}
}

// TestDrainAuditChecksTheBooks: a sender credit lost, a wrapper counted
// as submitted that no window holds and no election took, and a post left
// waiting in the timer queue with no kernel event to fire it, are each
// reported by what they break.
func TestDrainAuditChecksTheBooks(t *testing.T) {
	opts := DefaultOptions()
	opts.Credits = 8
	w, e0, e1 := testWorld(t, opts)
	got := captureChecks(t, w)
	w.Spawn("send", func(p *sim.Proc) {
		if err := e0.Gate(1).Send(p, 1, make([]byte, 64)); err != nil {
			t.Error(err)
		}
	})
	w.Spawn("recv", func(p *sim.Proc) {
		if _, err := e1.Gate(0).Recv(p, 1, make([]byte, 64)); err != nil {
			t.Error(err)
		}
		e0.Gate(1).credits--
		e1.stats.Submitted++
		e1.posts.push(pendingPost{})
		e1.timers = append(e1.timers, timer{at: w.Now()})
	})
	run(t, w)
	want := []string{
		"drain audit: node 1: Submitted 1, but EntriesSent 0 + 0 windowed",
		"drain audit: node 1: 1 deferred step(s) queued, 1 post(s) waiting, with no event pending",
		"drain audit: credits 0->1: 7 accounted for, budget 8",
	}
	if !slices.Equal(*got, want) {
		t.Errorf("the self-checks reported %q, want %q", *got, want)
	}
}

// TestOneClockCatchesASecondCheck: a live check pushed by hand beside the
// one a train's completion armed gives its frame two retransmit clocks.
// The check names the frame at every instant until the ack retires it —
// and nothing else is wrong with the world.
func TestOneClockCatchesASecondCheck(t *testing.T) {
	opts := DefaultOptions()
	opts.Reliability = true
	w, e0, e1 := testWorld(t, opts)
	got := captureChecks(t, w)
	var at sim.Time
	w.Spawn("send", func(p *sim.Proc) {
		// A blocking send returns at its train's NIC completion, once
		// the train's check is armed.
		if err := e0.Gate(1).Send(p, 7, make([]byte, 64)); err != nil {
			t.Error(err)
			return
		}
		fr := e0.Gate(1).ltx.unacked[0]
		e0.after(e0.opts.RetransmitTimeout, fr, fr.gen)
		at = w.Now()
	})
	w.Spawn("recv", func(p *sim.Proc) {
		if _, err := e1.Gate(0).Recv(p, 7, make([]byte, 64)); err != nil {
			t.Error(err)
		}
	})
	run(t, w)
	const says = " node 0 frame 0 to node 1 has 2 retransmit clocks, 0 transmission(s) in flight"
	want := fmt.Sprintf("one clock: at %v", at) + says
	if len(*got) == 0 || (*got)[0] != want {
		t.Fatalf("the self-checks reported %q, want %q first", *got, want)
	}
	for _, msg := range *got {
		if !strings.HasPrefix(msg, "one clock: at ") || !strings.HasSuffix(msg, says) {
			t.Errorf("the self-checks also reported %q", msg)
		}
	}
	if n := e0.Stats().Retransmits; n != 0 {
		t.Errorf("%d retransmissions: the frame was acked before either check fired", n)
	}
}
