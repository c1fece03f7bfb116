package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"nmad/internal/sim"
	"nmad/internal/simnet"
	"nmad/internal/trace"
)

// Regression and property tests for the scheduler bugfixes and the
// credit-based receive flow control.

// TestFlushOverheadSerializedPerRail locks in the feeding-claim fix:
// when the flush mode elects several outputs back-to-back for one rail,
// each must pay its full per-packet ScheduleOverhead after the previous
// one. The buggy claim (a bool reset by the first overhead callback)
// let outputs overlap and under-charge the overhead.
func TestFlushOverheadSerializedPerRail(t *testing.T) {
	tr := trace.NewRecorder()
	opts := DefaultOptions()
	opts.Strategy = "default" // one wrapper per output: several outputs per burst
	opts.FlushBacklog = 2
	opts.ScheduleOverhead = sim.Microsecond
	opts.Tracer = tr
	w, e0, e1 := testWorld(t, opts)

	const n = 4
	w.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			e0.Gate(1).Isend(p, 1, make([]byte, 64))
		}
	})
	w.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if _, err := e1.Gate(0).Recv(p, 1, make([]byte, 64)); err != nil {
				t.Error(err)
			}
		}
	})
	run(t, w)

	var departs []sim.Time
	for _, ev := range tr.Filter(trace.Depart) {
		if ev.Node == 0 && ev.Rail == 0 {
			departs = append(departs, ev.At)
		}
	}
	if len(departs) < 3 {
		t.Fatalf("expected several flush-fed outputs, saw %d departs", len(departs))
	}
	for i := 1; i < len(departs); i++ {
		if gap := departs[i] - departs[i-1]; gap < opts.ScheduleOverhead {
			t.Errorf("outputs %d and %d departed %v apart; every output must pay the full %v schedule overhead",
				i-1, i, gap, opts.ScheduleOverhead)
		}
	}
}

// TestSamplerObservesWireSize locks in the bandwidth-sampling fix: the
// EWMA must be fed the wire footprint of the transaction (headers
// included), because that is what the measured duration covers. Feeding
// it payload bytes biased the adaptive feedback loop low.
func TestSamplerObservesWireSize(t *testing.T) {
	tr := trace.NewRecorder()
	opts := DefaultOptions()
	opts.SubmitOverhead = 0
	opts.ScheduleOverhead = 0
	opts.Tracer = tr
	w, e0, e1 := testWorld(t, opts)

	const size = 8 << 10
	var end sim.Time
	w.Spawn("send", func(p *sim.Proc) {
		req := e0.Gate(1).Isend(p, 1, make([]byte, size))
		if err := req.Wait(p); err != nil {
			t.Error(err)
		}
		end = p.Now() // the NIC finished the packet at this instant
	})
	w.Spawn("recv", func(p *sim.Proc) {
		if _, err := e1.Gate(0).Recv(p, 1, make([]byte, size)); err != nil {
			t.Error(err)
		}
	})
	run(t, w)

	var departs []trace.Event
	for _, ev := range tr.Filter(trace.Depart) {
		if ev.Node == 0 {
			departs = append(departs, ev)
		}
	}
	if len(departs) != 1 {
		t.Fatalf("expected exactly one output packet, saw %d", len(departs))
	}
	dur := end - departs[0].At
	if dur <= 0 {
		t.Fatalf("bad duration %v", dur)
	}
	got := e0.rails[0].sampler.rate
	want := float64(size+headerSize) / dur.Seconds()
	payloadOnly := float64(size) / dur.Seconds()
	if rel := math.Abs(got-want) / want; rel > 1e-9 {
		t.Errorf("sampler rate %.0f B/s, want wire-size rate %.0f (payload-only rate would be %.0f)",
			got, want, payloadOnly)
	}
}

// TestRdvGrantClampedToLanding locks in the grant-clamping fix: a
// rendezvous whose posted landing area is smaller than the announced
// body must stream only the granted bytes — the receive completes with
// ErrTruncated and the excess never crosses the wire.
func TestRdvGrantClampedToLanding(t *testing.T) {
	w, e0, e1 := testWorld(t, DefaultOptions())
	const full, landing = 256 << 10, 64 << 10
	payload := make([]byte, full)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	w.Spawn("send", func(p *sim.Proc) {
		if err := e0.Gate(1).Isend(p, 1, payload).Wait(p); err != nil {
			t.Errorf("sender must complete cleanly after streaming the granted span: %v", err)
		}
	})
	w.Spawn("recv", func(p *sim.Proc) {
		buf := make([]byte, landing)
		n, err := e1.Gate(0).Recv(p, 1, buf)
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("short landing area: err = %v, want ErrTruncated", err)
		}
		if n != landing {
			t.Errorf("received %d bytes, want the %d-byte landing capacity", n, landing)
		}
		if !bytes.Equal(buf, payload[:landing]) {
			t.Error("granted span corrupted")
		}
	})
	run(t, w)

	if moved := e0.Stats().BodyBytes; moved != landing {
		t.Errorf("sender streamed %d body bytes, want only the granted %d (excess must not cross the wire)", moved, landing)
	}
	if tr := e1.Stats().RdvTruncated; tr != 1 {
		t.Errorf("RdvTruncated = %d, want 1", tr)
	}
}

// TestMaxGrantsDefersGrants: with MaxGrants=1 a flood of rendezvous
// requests is granted one at a time (CTS deferred), and every transfer
// still completes intact.
func TestMaxGrantsDefersGrants(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxGrants = 1
	w, e0, e1 := testWorld(t, opts)
	const n, size = 3, 128 << 10
	mk := func(tag int) []byte {
		b := make([]byte, size)
		for i := range b {
			b[i] = byte(i*3 + tag)
		}
		return b
	}
	w.Spawn("send", func(p *sim.Proc) {
		var reqs []Request
		for tag := 1; tag <= n; tag++ {
			reqs = append(reqs, e0.Gate(1).Isend(p, Tag(tag), mk(tag)))
		}
		if err := WaitAll(p, reqs...); err != nil {
			t.Error(err)
		}
	})
	w.Spawn("recv", func(p *sim.Proc) {
		bufs := make([][]byte, n)
		var reqs []Request
		for tag := 1; tag <= n; tag++ {
			bufs[tag-1] = make([]byte, size)
			reqs = append(reqs, e1.Gate(0).Irecv(p, Tag(tag), bufs[tag-1]))
		}
		if err := WaitAll(p, reqs...); err != nil {
			t.Error(err)
		}
		for tag := 1; tag <= n; tag++ {
			if !bytes.Equal(bufs[tag-1], mk(tag)) {
				t.Errorf("tag %d corrupted", tag)
			}
		}
	})
	run(t, w)

	st := e1.Stats()
	if st.RdvDeferred < n-1 {
		t.Errorf("RdvDeferred = %d, want at least %d (MaxGrants=1 over %d concurrent rendezvous)", st.RdvDeferred, n-1, n)
	}
	if st.ProtocolErrors != 0 {
		t.Errorf("protocol errors: %d", st.ProtocolErrors)
	}
}

// TestCreditsThrottleAndReplenish: with a credit budget of 2 and a
// receiver that posts nothing for a while, at most 2 eager wrappers may
// be in flight; the rest wait in the sender's window, invisible to the
// strategies, until consumed wrappers return their credits.
func TestCreditsThrottleAndReplenish(t *testing.T) {
	opts := DefaultOptions()
	opts.Credits = 2
	w, e0, e1 := testWorld(t, opts)
	const n = 5
	var reqs []Request
	w.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			reqs = append(reqs, e0.Gate(1).Isend(p, 1, []byte{byte(i), 2, 3}))
		}
	})
	w.Spawn("recv", func(p *sim.Proc) {
		p.Sleep(50 * sim.Microsecond) // let the burst hit the credit wall
		if got := e1.Gate(0).PendingUnexpected(); got > opts.Credits {
			t.Errorf("unexpected queue reached %d with a budget of %d", got, opts.Credits)
		}
		if e0.WindowEmpty() {
			t.Error("sender window drained past the credit budget")
		}
		for i := 0; i < n; i++ {
			buf := make([]byte, 3)
			if _, err := e1.Gate(0).Recv(p, 1, buf); err != nil {
				t.Error(err)
			}
			if buf[0] != byte(i) {
				t.Errorf("message %d out of order or corrupted", i)
			}
		}
	})
	run(t, w)

	if err := WaitAll(nil, reqs...); err != nil || len(reqs) != n {
		t.Fatalf("sends: %d requests, err %v", len(reqs), err)
	}
	if st := e1.Stats(); st.PeakUnexpected > opts.Credits {
		t.Errorf("PeakUnexpected = %d, want <= credit budget %d", st.PeakUnexpected, opts.Credits)
	}
	if g := e0.Gate(1); g.Credits() != opts.Credits {
		t.Errorf("all credits must return once the receiver drained: have %d of %d", g.Credits(), opts.Credits)
	}
	if cs := e1.Stats().CreditsSent; cs == 0 {
		t.Error("receiver never sent a credit replenishment entry")
	}
}

// TestCreditsRespectSubmissionOrderAcrossRails: the credit window is
// budgeted in gate-wide submission order, not per-rail view order. With
// one credit, a flow head pinned to a busy rail, and a later wrapper of
// the same flow on the common list, the later wrapper must NOT take the
// last credit: the receiver would park it in the resequencing buffer
// (which never returns credits) and the head could never be sent — a
// permanent flow-control deadlock.
func TestCreditsRespectSubmissionOrderAcrossRails(t *testing.T) {
	w := sim.NewWorld()
	f := simnet.NewFabric(w, 3, simnet.DefaultHost())
	for _, prof := range []simnet.Profile{simnet.MX10G(), simnet.QsNetII()} {
		if _, err := f.AddNetwork(prof); err != nil {
			t.Fatal(err)
		}
	}
	opts := DefaultOptions()
	opts.Credits = 1
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
	e0, e1, e2 := mk(0), mk(1), mk(2)

	w.Spawn("sender", func(p *sim.Proc) {
		// Occupy rail 1 with traffic to another gate, then pin the flow
		// head to the busy rail while the follow-up rides the common
		// list: rail 0 idles first and sees only the follow-up.
		filler := e0.Gate(2).Isend(p, 9, make([]byte, 8<<10), OnRail(1))
		head := e0.Gate(1).Isend(p, 5, []byte("head"), OnRail(1))
		tail := e0.Gate(1).Isend(p, 5, []byte("tail"))
		if err := WaitAll(p, filler, head, tail); err != nil {
			t.Error(err)
		}
	})
	w.Spawn("recv-1", func(p *sim.Proc) {
		for _, want := range []string{"head", "tail"} {
			buf := make([]byte, 4)
			if _, err := e1.Gate(0).Recv(p, 5, buf); err != nil {
				t.Errorf("recv %q: %v", want, err)
				return
			}
			if string(buf) != want {
				t.Errorf("got %q, want %q (per-flow order)", buf, want)
			}
		}
	})
	w.Spawn("recv-2", func(p *sim.Proc) {
		if _, err := e2.Gate(0).Recv(p, 9, make([]byte, 8<<10)); err != nil {
			t.Error(err)
		}
	})
	if err := w.Run(); err != nil {
		t.Fatalf("flow-control deadlock: %v", err)
	}
}

// TestIncastBoundedQueuesUnderCredits is the overload property: eight
// senders flood one slow receiver; with credit flow control the
// receiver's unexpected queue and resequencing backlog stay bounded by
// the per-gate budget, no protocol error fires, and every payload
// arrives intact.
func TestIncastBoundedQueuesUnderCredits(t *testing.T) {
	const (
		senders = 8
		msgs    = 24
		size    = 512
		credits = 8
	)
	w := sim.NewWorld()
	f := simnet.NewFabric(w, senders+1, simnet.DefaultHost())
	if _, err := f.AddNetwork(simnet.MX10G()); err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Credits = credits
	opts.MaxGrants = 2
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
	recv := mk(0)
	engines := make([]*Engine, senders)
	for i := range engines {
		engines[i] = mk(simnet.NodeID(i + 1))
	}
	fill := func(sender, msg int, buf []byte) {
		for i := range buf {
			buf[i] = byte(sender*31 + msg*7 + i)
		}
	}
	for s, e := range engines {
		s, e := s, e
		w.Spawn(fmt.Sprintf("sender-%d", s+1), func(p *sim.Proc) {
			var reqs []Request
			for m := 0; m < msgs; m++ {
				buf := make([]byte, size)
				fill(s+1, m, buf)
				reqs = append(reqs, e.Gate(0).Isend(p, Tag(s+1), buf))
			}
			if err := WaitAll(p, reqs...); err != nil {
				t.Errorf("sender %d: %v", s+1, err)
			}
		})
	}
	for s := range engines {
		s := s
		w.Spawn(fmt.Sprintf("drain-%d", s+1), func(p *sim.Proc) {
			g := recv.Gate(simnet.NodeID(s + 1))
			want := make([]byte, size)
			for m := 0; m < msgs; m++ {
				p.Sleep(2 * sim.Microsecond) // slow receiver: the overload
				buf := make([]byte, size)
				n, err := g.Recv(p, Tag(s+1), buf)
				if err != nil || n != size {
					t.Errorf("recv from %d: n=%d err=%v", s+1, n, err)
					return
				}
				fill(s+1, m, want)
				if !bytes.Equal(buf, want) {
					t.Errorf("sender %d msg %d corrupted", s+1, m)
				}
			}
		})
	}
	run(t, w)

	st := recv.Stats()
	if st.PeakUnexpected > credits {
		t.Errorf("PeakUnexpected = %d, want <= per-gate credit budget %d", st.PeakUnexpected, credits)
	}
	if st.PeakHeld > credits {
		t.Errorf("PeakHeld = %d, want <= per-gate credit budget %d", st.PeakHeld, credits)
	}
	if st.ProtocolErrors != 0 {
		t.Errorf("protocol errors under overload: %d", st.ProtocolErrors)
	}
	for i, e := range engines {
		if !e.WindowEmpty() {
			t.Errorf("sender %d window not drained", i+1)
		}
	}
}

// arrive dispatches one wrapper the way a delivery would: the payload
// sits in a wire frame whose reference is dropped when dispatch returns.
func arrive(e *Engine, src simnet.NodeID, h header, payload []byte) {
	fr := new(simnet.FrameList).New([][]byte{payload})
	e.dispatch(src, h, fr.Bytes(), fr)
	fr.Release()
}

// TestDroppedDuplicateReturnsCredit: a data wrapper dropped as a
// duplicate still spent a sender credit; the drop must return it, or
// every counted anomaly would permanently shrink the gate's budget.
func TestDroppedDuplicateReturnsCredit(t *testing.T) {
	opts := DefaultOptions()
	opts.Credits = 4
	w, _, e1 := testWorld(t, opts)
	w.Spawn("inject", func(p *sim.Proc) {
		g := e1.Gate(0)
		g.Irecv(p, 3, make([]byte, 2))
		arrive(e1, 0, header{kind: kindData, tag: 3, seq: 0, length: 2}, []byte{1, 2})
		arrive(e1, 0, header{kind: kindData, tag: 3, seq: 0, length: 2}, []byte{1, 2})
	})
	run(t, w)
	if got := e1.Stats().ProtocolErrors; got != 1 {
		t.Fatalf("ProtocolErrors = %d, want 1", got)
	}
	// Both the consumed original and the dropped duplicate replenish
	// (batch size is 1 at this budget).
	if got := e1.Stats().CreditsSent; got != 2 {
		t.Errorf("CreditsSent = %d, want 2 (dropped duplicate must return its credit)", got)
	}
}

// TestDuplicateDeferredRendezvousRejected: a duplicate RTS id must be
// rejected even while the original waits in the MaxGrants deferral
// queue — queueing it twice would overwrite the live transaction when
// the grants release.
func TestDuplicateDeferredRendezvousRejected(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxGrants = 1
	w, _, e1 := testWorld(t, opts)
	w.Spawn("inject", func(p *sim.Proc) {
		g := e1.Gate(0)
		g.Irecv(p, 1, make([]byte, 16))
		g.Irecv(p, 2, make([]byte, 16))
		g.Irecv(p, 2, make([]byte, 16))
		// The first RTS takes the only grant slot; the second defers;
		// the duplicated second must be counted and dropped.
		arrive(e1, 0, header{kind: kindRTS, flags: flagUnordered, tag: 1, length: 16, aux: 1}, nil)
		arrive(e1, 0, header{kind: kindRTS, flags: flagUnordered, tag: 2, length: 16, aux: 2}, nil)
		arrive(e1, 0, header{kind: kindRTS, flags: flagUnordered, tag: 2, length: 16, aux: 2}, nil)
	})
	run(t, w)
	if got := e1.Stats().ProtocolErrors; got != 1 {
		t.Errorf("ProtocolErrors = %d, want 1 (the duplicated deferred RTS)", got)
	}
	if got := e1.Stats().RdvDeferred; got != 1 {
		t.Errorf("RdvDeferred = %d, want 1", got)
	}
}

// TestProtocolAnomaliesCountedNotFatal: receive-path protocol anomalies
// that used to panic are now counted per gate and dropped.
func TestProtocolAnomaliesCountedNotFatal(t *testing.T) {
	w, _, e1 := testWorld(t, DefaultOptions())
	w.Spawn("inject", func(p *sim.Proc) {
		g := e1.Gate(0)
		g.Irecv(p, 9, make([]byte, 4))
		arrive(e1, 0, header{kind: kindData, tag: 9, seq: 0, length: 1}, []byte{1})
		arrive(e1, 0, header{kind: kindData, tag: 9, seq: 0, length: 1}, []byte{1})   // duplicate seq
		arrive(e1, 0, header{kind: kindData, tag: 9, seq: 5, length: 1}, []byte{5})   // held (out of order)
		arrive(e1, 0, header{kind: kindData, tag: 9, seq: 5, length: 1}, []byte{5})   // duplicate of a held entry
		e1.onAck(g, 77)                                                               // unknown sync-send id
		e1.onBody(0, 99, 0, 3, []byte{1, 2, 3})                                       // unknown rendezvous
		e1.onDelivery(e1.rails[0], simnet.Delivery{Src: 0, Data: []byte{0xFF, 1, 2}}) // corrupt train
		arrive(e1, 0, header{kind: entryKind(42)}, nil)                               // unknown kind
	})
	run(t, w)

	const want = 6
	if got := e1.Stats().ProtocolErrors; got != want {
		t.Errorf("Stats.ProtocolErrors = %d, want %d", got, want)
	}
	if got := e1.Gate(0).ProtocolErrors(); got != want {
		t.Errorf("gate attribution = %d, want %d", got, want)
	}
}
