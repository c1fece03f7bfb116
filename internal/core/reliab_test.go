package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"nmad/internal/sim"
	"nmad/internal/simnet"
)

// lossyPair builds a 2-node fabric with the given networks and fault
// profile, and one reliability-enabled engine per node.
func lossyPair(t *testing.T, opts Options, fp simnet.FaultProfile, profs ...simnet.Profile) (*sim.World, *Engine, *Engine) {
	t.Helper()
	opts.Reliability = true
	return faultyPair(t, opts, fp, profs...)
}

// faultyPair is lossyPair with the engines as opts has them: without
// reliability the fabric may reorder and duplicate but must not lose.
func faultyPair(t *testing.T, opts Options, fp simnet.FaultProfile, profs ...simnet.Profile) (*sim.World, *Engine, *Engine) {
	t.Helper()
	if len(profs) == 0 {
		profs = []simnet.Profile{simnet.MX10G()}
	}
	w := sim.NewWorld()
	f := simnet.NewFabric(w, 2, simnet.DefaultHost())
	for _, p := range profs {
		if _, err := f.AddNetwork(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.SetFaults(fp); err != nil {
		t.Fatal(err)
	}
	mk := func(id simnet.NodeID) *Engine {
		e, err := New(f, id, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.AttachFabric(f); err != nil {
			t.Fatal(err)
		}
		return e
	}
	return w, mk(0), mk(1)
}

// fillSeq writes a deterministic, position-dependent pattern.
func fillSeq(buf []byte, salt byte) {
	for i := range buf {
		buf[i] = byte(i)*7 + salt
	}
}

func TestReliableEagerUnderHeavyDrop(t *testing.T) {
	const n, size = 60, 512
	w, e0, e1 := lossyPair(t, DefaultOptions(),
		simnet.FaultProfile{Seed: 11, Rails: []simnet.RailFaults{{DropProb: 0.3}}})
	w.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			msg := make([]byte, size)
			fillSeq(msg, byte(i))
			if err := e0.Gate(1).Send(p, 7, msg); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}
	})
	w.Spawn("recv", func(p *sim.Proc) {
		buf := make([]byte, size)
		want := make([]byte, size)
		for i := 0; i < n; i++ {
			got, err := e1.Gate(0).Recv(p, 7, buf)
			if err != nil {
				t.Fatalf("recv %d: %v", i, err)
			}
			fillSeq(want, byte(i))
			if got != size || !bytes.Equal(buf, want) {
				t.Fatalf("recv %d: corrupt or out-of-order payload (%d bytes)", i, got)
			}
		}
	})
	run(t, w)
	st := e0.Stats()
	if st.Retransmits == 0 {
		t.Error("30% drop produced no retransmits")
	}
	if e1.Stats().ProtocolErrors != 0 {
		t.Errorf("receiver counted %d protocol errors", e1.Stats().ProtocolErrors)
	}
}

func TestReliableDupAndReorder(t *testing.T) {
	const n, size = 80, 256
	w, e0, e1 := lossyPair(t, DefaultOptions(),
		simnet.FaultProfile{Seed: 4, Rails: []simnet.RailFaults{{DropProb: 0.1, DupProb: 0.25, ReorderProb: 0.35}}})
	w.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			msg := make([]byte, size)
			fillSeq(msg, byte(i))
			if err := e0.Gate(1).Send(p, Tag(i%3), msg); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}
	})
	w.Spawn("recv", func(p *sim.Proc) {
		buf := make([]byte, size)
		want := make([]byte, size)
		for i := 0; i < n; i++ {
			got, err := e1.Gate(0).Recv(p, Tag(i%3), buf)
			if err != nil {
				t.Fatalf("recv %d: %v", i, err)
			}
			fillSeq(want, byte(i))
			if got != size || !bytes.Equal(buf, want) {
				t.Fatalf("recv %d: wrong payload — duplicate or reordered delivery leaked through", i)
			}
		}
	})
	run(t, w)
	s0, s1 := e0.Stats(), e1.Stats()
	if s0.DupAcks == 0 && s1.ReorderedAccepts == 0 && s0.Retransmits == 0 {
		t.Errorf("faulty fabric left no reliability trace: %+v", s0)
	}
	if s1.ProtocolErrors != 0 {
		t.Errorf("receiver counted %d protocol errors", s1.ProtocolErrors)
	}
}

func TestReliableRendezvousUnderDrop(t *testing.T) {
	// Bodies ride RDMA below the link layer on mx10g: loss is repaired by
	// the receiver's progress watchdog re-pushing the CTS.
	const bodies = 6
	const size = 256 << 10
	w, e0, e1 := lossyPair(t, DefaultOptions(),
		simnet.FaultProfile{Seed: 9, Rails: []simnet.RailFaults{{DropProb: 0.25}}})
	w.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < bodies; i++ {
			msg := make([]byte, size)
			fillSeq(msg, byte(i))
			if err := e0.Gate(1).Send(p, 5, msg); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}
	})
	w.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < bodies; i++ {
			buf := make([]byte, size)
			got, err := e1.Gate(0).Recv(p, 5, buf)
			if err != nil {
				t.Fatalf("recv %d: %v", i, err)
			}
			want := make([]byte, size)
			fillSeq(want, byte(i))
			if got != size || !bytes.Equal(buf, want) {
				t.Fatalf("recv %d: corrupt body", i)
			}
		}
	})
	run(t, w)
	if got := e0.Stats().RdvCompleted; got != bodies {
		t.Errorf("RdvCompleted = %d, want %d", got, bodies)
	}
	if len(e0.rdvSend) != 0 || len(e1.rdvRecv) != 0 {
		t.Errorf("leaked rendezvous state: %d send, %d recv", len(e0.rdvSend), len(e1.rdvRecv))
	}
}

func TestRailFailoverAndRecovery(t *testing.T) {
	// Rail 1 is dark for its first 3ms: a send pinned to it must fail
	// over to rail 0 mid-flow, and the probe must bring rail 1 back once
	// the outage ends.
	opts := DefaultOptions()
	opts.RetransmitTimeout = 100 * sim.Microsecond
	opts.RetransmitBudget = 3
	fp := simnet.FaultProfile{Seed: 2, Rails: []simnet.RailFaults{
		{},
		{Outages: []simnet.Outage{{At: 0, Duration: sim.FromMicroseconds(3000)}}},
	}}
	w, e0, e1 := lossyPair(t, opts, fp, simnet.MX10G(), simnet.MX10G())
	msg1 := make([]byte, 512)
	fillSeq(msg1, 1)
	msg2 := make([]byte, 512)
	fillSeq(msg2, 2)
	w.Spawn("send", func(p *sim.Proc) {
		if err := e0.Gate(1).Isend(p, 9, msg1, OnRail(1)).Wait(p); err != nil {
			t.Errorf("pinned send during outage: %v", err)
		}
		// Wait past the outage end plus a probe interval, then use the
		// recovered rail again.
		for w.Now() < sim.FromMicroseconds(4000) {
			p.Sleep(100 * sim.Microsecond)
		}
		if err := e0.Gate(1).Isend(p, 9, msg2, OnRail(1)).Wait(p); err != nil {
			t.Errorf("pinned send after recovery: %v", err)
		}
	})
	w.Spawn("recv", func(p *sim.Proc) {
		for i, want := range [][]byte{msg1, msg2} {
			buf := make([]byte, 512)
			got, err := e1.Gate(0).Recv(p, 9, buf)
			if err != nil {
				t.Fatalf("recv %d: %v", i, err)
			}
			if got != len(want) || !bytes.Equal(buf[:got], want) {
				t.Fatalf("recv %d: corrupt payload", i)
			}
		}
	})
	run(t, w)
	st := e0.Stats()
	if st.FailedRails != 1 {
		t.Errorf("FailedRails = %d, want 1", st.FailedRails)
	}
	if st.RecoveredRails != 1 {
		t.Errorf("RecoveredRails = %d, want 1", st.RecoveredRails)
	}
	if st.Retransmits < int(opts.RetransmitBudget) {
		t.Errorf("Retransmits = %d, want >= %d", st.Retransmits, opts.RetransmitBudget)
	}
}

// TestRailFailKeepsStagedOutput: with anticipation on, a busy rail holds
// a pre-built packet whose wrappers have already left the window. When
// the rail is declared dead those wrappers must go back to the window
// for the survivor — dropping the staged packet loses them for good and
// their sends never complete.
func TestRailFailKeepsStagedOutput(t *testing.T) {
	for _, credits := range []int{0, 64} {
		t.Run(fmt.Sprintf("credits=%d", credits), func(t *testing.T) {
			opts := DefaultOptions()
			opts.Anticipate = true
			opts.Credits = credits
			opts.RetransmitTimeout = 20 * sim.Microsecond
			opts.RetransmitBudget = 2
			opts.ProbeBudget = 2
			// Rail 1 is dark for the whole run. Its NIC still completes on
			// the sending side, so the rail keeps electing, sending and
			// pre-staging out of the backlog until a frame runs out of
			// retransmissions.
			fp := simnet.FaultProfile{Seed: 5, Rails: []simnet.RailFaults{
				{},
				{Outages: []simnet.Outage{{At: 0, Duration: sim.FromMicroseconds(1e6)}}},
			}}
			w, e0, e1 := lossyPair(t, opts, fp, simnet.MX10G(), simnet.QsNetII())
			const n, size = 96, 4 << 10
			stagedAtFailure := false
			w.Spawn("send", func(p *sim.Proc) {
				reqs := make([]Request, n)
				for i := range reqs {
					msg := make([]byte, size)
					fillSeq(msg, byte(i))
					reqs[i] = e0.Gate(1).Isend(p, Tag(i%3), msg)
				}
				// Watch for the instant before the failure: the dead rail
				// must be holding a staged packet then, or the test is
				// not testing the hand-back.
				for e0.Stats().FailedRails == 0 {
					stagedAtFailure = e0.rails[1].staged != nil
					p.Sleep(sim.Microsecond / 4)
				}
				if err := WaitAll(p, reqs...); err != nil {
					t.Errorf("sends: %v", err)
				}
			})
			w.Spawn("recv", func(p *sim.Proc) {
				next := [3]int{0, 1, 2}
				for i := 0; i < n; i++ {
					buf, want := make([]byte, size), make([]byte, size)
					fl := i % 3
					if got, err := e1.Gate(0).Recv(p, Tag(fl), buf); err != nil || got != size {
						t.Fatalf("recv %d: n=%d err=%v", i, got, err)
					}
					fillSeq(want, byte(next[fl]))
					next[fl] += 3
					if !bytes.Equal(buf, want) {
						t.Fatalf("recv %d: corrupt or out-of-order payload on flow %d", i, fl)
					}
				}
			})
			run(t, w)
			st := e0.Stats()
			if st.FailedRails != 1 {
				t.Fatalf("FailedRails = %d, want 1", st.FailedRails)
			}
			if !stagedAtFailure {
				t.Fatal("rail 1 held no staged packet when it failed: the workload no longer reaches the hand-back")
			}
			if st.Submitted != st.EntriesSent {
				t.Errorf("Submitted %d != EntriesSent %d: a handed-back wrapper was lost or booked twice", st.Submitted, st.EntriesSent)
			}
			if !e0.WindowEmpty() {
				t.Error("window not drained")
			}
			if credits > 0 && e0.Gate(1).Credits() != credits {
				t.Errorf("credits ended at %d, want the full budget %d back", e0.Gate(1).Credits(), credits)
			}
		})
	}
}

// A retransmit check armed before a retransmission is void, even when
// that retransmission reset the frame's budget: railFail re-issues the
// dead rail's frames with attempts back at one, which a check stamped
// with its attempt number could not tell from the check armed at the
// first transmission. Two frames leave on a dark rail a microsecond
// apart; the first one's check fails the rail, re-issuing both; the
// second one's check, armed before that, fires a microsecond later and
// must not send a third copy while the re-issued one is in flight.
func TestRailFailReissueVoidsEarlierChecks(t *testing.T) {
	opts := DefaultOptions()
	opts.RetransmitBudget = 1
	opts.ProbeBudget = 1
	fp := simnet.FaultProfile{Seed: 1, Rails: []simnet.RailFaults{
		{},
		{Outages: []simnet.Outage{{At: 0, Duration: sim.FromMicroseconds(1e6)}}},
	}}
	w, e0, e1 := lossyPair(t, opts, fp, simnet.MX10G(), simnet.QsNetII())
	data := make([]byte, 64)
	w.Spawn("send", func(p *sim.Proc) {
		first := e0.Gate(1).Isend(p, 1, data, OnRail(1))
		p.Sleep(sim.Microsecond)
		if err := WaitAll(p, first, e0.Gate(1).Isend(p, 2, data, OnRail(1))); err != nil {
			t.Error(err)
		}
	})
	w.Spawn("recv", func(p *sim.Proc) {
		for tag := Tag(1); tag <= 2; tag++ {
			if _, err := e1.Gate(0).Recv(p, tag, make([]byte, 64)); err != nil {
				t.Error(err)
			}
		}
	})
	run(t, w)
	if st := e0.Stats(); st.FailedRails != 1 || st.Retransmits != 2 {
		t.Errorf("FailedRails = %d, Retransmits = %d; want the rail failed once and each frame re-issued once",
			st.FailedRails, st.Retransmits)
	}
}

// reliableRun drives a fixed mixed workload over a lossy rail and
// returns both engines' stats plus the virtual completion time.
func reliableRun(t *testing.T, seed uint64) (Stats, Stats, sim.Time) {
	t.Helper()
	w, e0, e1 := lossyPair(t, DefaultOptions(),
		simnet.FaultProfile{Seed: seed, Rails: []simnet.RailFaults{{DropProb: 0.15, DupProb: 0.1, ReorderProb: 0.2}}})
	const n = 40
	var done sim.Time
	w.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			size := 64 + i*131
			msg := make([]byte, size)
			fillSeq(msg, byte(i))
			if err := e0.Gate(1).Send(p, Tag(i%4), msg); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}
	})
	w.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			size := 64 + i*131
			buf := make([]byte, size)
			got, err := e1.Gate(0).Recv(p, Tag(i%4), buf)
			if err != nil || got != size {
				t.Fatalf("recv %d: n=%d err=%v", i, got, err)
			}
			want := make([]byte, size)
			fillSeq(want, byte(i))
			if !bytes.Equal(buf, want) {
				t.Fatalf("recv %d: corrupt payload", i)
			}
		}
		done = w.Now()
	})
	run(t, w)
	return e0.Stats(), e1.Stats(), done
}

func TestReliableSeededDeterminism(t *testing.T) {
	a0, a1, at := reliableRun(t, 21)
	b0, b1, bt := reliableRun(t, 21)
	if !reflect.DeepEqual(a0, b0) || !reflect.DeepEqual(a1, b1) {
		t.Errorf("same seed, different stats:\n%+v\n%+v\n%+v\n%+v", a0, b0, a1, b1)
	}
	if at != bt {
		t.Errorf("same seed, different completion: %v vs %v", at, bt)
	}
	c0, _, ct := reliableRun(t, 22)
	if reflect.DeepEqual(a0, c0) && at == ct {
		t.Error("different seeds produced identical runs")
	}
	if a0.Retransmits == 0 {
		t.Errorf("lossy run shows no retransmits: %s", fmt.Sprintf("%+v", a0))
	}
}

func TestProbeBudgetAbandonsPermanentOutage(t *testing.T) {
	// Rail 1 never comes back. Without Options.ProbeBudget the recovery
	// probe reschedules itself forever and World.Run never returns (the
	// regression this test pins down); with a budget the probe gives the
	// rail up after N unanswered pings and the world drains on its own —
	// no RunUntil horizon needed.
	opts := DefaultOptions()
	opts.RetransmitTimeout = 100 * sim.Microsecond
	opts.RetransmitBudget = 3
	opts.ProbeBudget = 5
	fp := simnet.FaultProfile{Seed: 3, Rails: []simnet.RailFaults{
		{},
		{Outages: []simnet.Outage{{At: 0, Duration: 1000 * sim.Second}}},
	}}
	w, e0, e1 := lossyPair(t, opts, fp, simnet.MX10G(), simnet.MX10G())
	msg := make([]byte, 512)
	fillSeq(msg, 1)
	w.Spawn("send", func(p *sim.Proc) {
		// Pinned to the dead rail: must still arrive via failover.
		if err := e0.Gate(1).Isend(p, 9, msg, OnRail(1)).Wait(p); err != nil {
			t.Errorf("pinned send during permanent outage: %v", err)
		}
	})
	w.Spawn("recv", func(p *sim.Proc) {
		buf := make([]byte, 512)
		got, err := e1.Gate(0).Recv(p, 9, buf)
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		if got != len(msg) || !bytes.Equal(buf[:got], msg) {
			t.Fatal("corrupt payload after failover")
		}
	})
	run(t, w) // plain Run: terminates only if the probe gives up
	st := e0.Stats()
	if st.FailedRails != 1 {
		t.Errorf("FailedRails = %d, want 1", st.FailedRails)
	}
	if st.AbandonedRails != 1 {
		t.Errorf("AbandonedRails = %d, want 1", st.AbandonedRails)
	}
	if st.RecoveredRails != 0 {
		t.Errorf("RecoveredRails = %d, want 0 (the rail never answered)", st.RecoveredRails)
	}
}

// An acked link frame's record goes back on its list at the ack, while
// the retransmit check armed at its transmission is still pending: the
// check cannot be cancelled, but the recycling advanced the record's
// generation. The next train reuses the record before that check fires,
// and the check, firing while the new frame is in flight, does nothing.
// On a lossless fabric nothing is ever retransmitted.
func TestLinkFrameRecycledBeforeItsCheck(t *testing.T) {
	opts := DefaultOptions()
	opts.Reliability = true
	w, e0, e1 := testWorld(t, opts)
	g := e0.Gate(1)
	data := make([]byte, 512)
	pending := func() int {
		return queuedSteps(e0, func(t timer) bool { _, ok := t.ref.(*linkFrame); return ok })
	}
	var first *linkFrame
	w.Spawn("send", func(p *sim.Proc) {
		// A blocking send returns at its train's NIC completion, the
		// instant the train's check is armed.
		if err := g.Send(p, 7, data); err != nil {
			t.Error(err)
			return
		}
		if len(g.ltx.unacked) != 1 || pending() != 1 {
			t.Errorf("%d unacked, %d checks pending once the first train left the NIC, want 1 and 1", len(g.ltx.unacked), pending())
			return
		}
		first = g.ltx.unacked[0]
		fires := p.Now() + e0.opts.RetransmitTimeout
		p.Sleep(50 * sim.Microsecond)
		if len(g.ltx.unacked) != 0 || e0.freeLinks.len() != 1 || e0.freeLinks.head != first || pending() != 1 {
			t.Errorf("acked frame: %d unacked, %d records listed, %d checks pending; want its record listed, its check pending",
				len(g.ltx.unacked), e0.freeLinks.len(), pending())
		}
		// The next train leaves just before the first check fires, and
		// is still unacked when it does.
		p.Sleep(fires - sim.Microsecond - p.Now())
		second := g.Isend(p, 7, data)
		p.Sleep(sim.Microsecond / 2) // the election's schedule overhead
		if len(g.ltx.unacked) != 1 || g.ltx.unacked[0] != first {
			t.Error("the next train took a fresh record while an acked one was listed")
		}
		w.At(fires, func() { // after the first check, armed earlier
			if pending() != 0 || first.sending != 1 {
				t.Errorf("%d checks pending, %d copies in flight; want the first check fired and the second train on the wire", pending(), first.sending)
			}
			if len(g.ltx.unacked) != 1 || g.ltx.unacked[0] != first || e0.Stats().Retransmits != 0 {
				t.Errorf("the void check acted: %d unacked, %d retransmissions", len(g.ltx.unacked), e0.Stats().Retransmits)
			}
		})
		if err := second.Wait(p); err != nil {
			t.Error(err)
		}
	})
	w.Spawn("recv", func(p *sim.Proc) {
		for range 2 {
			if _, err := e1.Gate(0).Recv(p, 7, make([]byte, 512)); err != nil {
				t.Error(err)
			}
		}
	})
	run(t, w)
	if n := e0.Stats().Retransmits; n != 0 {
		t.Errorf("%d retransmissions on a lossless fabric", n)
	}
}

// A delayed ack superseded before it fires — an outbound frame carried
// the floor, then a new arrival scheduled the ack again — does nothing
// when it fires: only the latest event sends, once.
func TestStaleAckEventDoesNothing(t *testing.T) {
	opts := DefaultOptions()
	opts.Reliability = true
	w, e0, _ := testWorld(t, opts)
	g := e0.Gate(1)
	w.At(0, func() {
		e0.linkScheduleAck(g)
		g.lrx.ackPending = false // what linkSend does: the frame carries the floor
	})
	w.At(sim.Microsecond, func() { e0.linkScheduleAck(g) })
	w.At(linkAckDelay+sim.Microsecond/2, func() {
		if n := e0.Stats().WireBytes; n != 0 {
			t.Errorf("the superseded ack event sent %d bytes", n)
		}
		n := queuedSteps(e0, func(t timer) bool { return t.ref == any(g) })
		latest := queuedSteps(e0, func(t timer) bool { return t.ref == any(g) && t.arg == g.lrx.ackGen })
		if !g.lrx.ackPending || n != 1 || latest != 1 {
			t.Errorf("after the stale event: ackPending=%v with %d acks pending, %d of the latest generation; want true, 1 and 1", g.lrx.ackPending, n, latest)
		}
	})
	run(t, w)
	if n := e0.Stats().WireBytes; n != headerSize {
		t.Errorf("%d bytes of pure acks sent, want one ack (%d)", n, headerSize)
	}
}

// queuedSteps counts e's queued timer entries that match.
func queuedSteps(e *Engine, match func(t timer) bool) int {
	n := 0
	for _, q := range queued(e) {
		for _, t := range q {
			if match(t) {
				n++
			}
		}
	}
	return n
}
