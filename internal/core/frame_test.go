package core

import (
	"bytes"
	"testing"

	"nmad/internal/sim"
	"nmad/internal/simnet"
)

// TestRendezvousBufferReusableOnceWaitReturns: a completed send's memory
// is the caller's again. Under reliability a rendezvous send completes
// when its body has streamed out, yet RDMA fragments can be lost below
// the link layer and the receiver may ask for the span again long after;
// that reissue must carry the bytes the send was posted with, not what
// the caller has put in the buffer since.
func TestRendezvousBufferReusableOnceWaitReturns(t *testing.T) {
	const bodies = 8
	const size = 256 << 10
	w, e0, e1 := lossyPair(t, DefaultOptions(),
		simnet.FaultProfile{Seed: 9, Rails: []simnet.RailFaults{{DropProb: 0.25}}})
	w.Spawn("send", func(p *sim.Proc) {
		msg := make([]byte, size)
		for i := 0; i < bodies; i++ {
			fillSeq(msg, byte(i))
			if err := e0.Gate(1).Isend(p, 5, msg).Wait(p); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
			for j := range msg {
				msg[j] = 0xEE // the moment Wait returns
			}
		}
	})
	w.Spawn("recv", func(p *sim.Proc) {
		buf, want := make([]byte, size), make([]byte, size)
		for i := 0; i < bodies; i++ {
			got, err := e1.Gate(0).Recv(p, 5, buf)
			if err != nil {
				t.Fatalf("recv %d: %v", i, err)
			}
			fillSeq(want, byte(i))
			if got != size || !bytes.Equal(buf, want) {
				t.Fatalf("recv %d: body differs from what was sent — a reissued span read the reused send buffer", i)
			}
		}
	})
	run(t, w)
	if e0.Stats().BodyReissues == 0 {
		t.Error("no body span was reissued: the test exercised nothing")
	}
	if len(e0.rdvSend) != 0 {
		t.Errorf("%d rendezvous transactions (and their retained frames) never retired", len(e0.rdvSend))
	}
}

// parkedArrivals sends n eager messages of distinct content one at a
// time — so every wire frame the fabric gives back is refilled by the
// very next message — over a fabric that reorders and duplicates, to a
// receiver that posts nothing until all of it has arrived: every message
// waits held or unexpected, as a slice of the frame it came in, while
// later traffic recycles around it. Each must read back byte-exact.
func parkedArrivals(t *testing.T, w *sim.World, e0, e1 *Engine) {
	t.Helper()
	const n, size, tags = 96, 200, 3
	w.Spawn("send", func(p *sim.Proc) {
		msg := make([]byte, size)
		for i := 0; i < n; i++ {
			fillSeq(msg, byte(i))
			if err := e0.Gate(1).Send(p, Tag(i%tags), msg); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}
	})
	w.Spawn("recv", func(p *sim.Proc) {
		p.Sleep(50 * sim.Millisecond)
		if got := e1.Gate(0).PendingUnexpected(); got != n {
			t.Errorf("%d messages waiting unexpected, want all %d", got, n)
		}
		buf, want := make([]byte, size), make([]byte, size)
		for i := 0; i < n; i++ {
			got, err := e1.Gate(0).Recv(p, Tag(i%tags), buf)
			if err != nil {
				t.Fatalf("recv %d: %v", i, err)
			}
			fillSeq(want, byte(i))
			if got != size || !bytes.Equal(buf, want) {
				t.Fatalf("recv %d: a parked arrival's bytes changed while it waited", i)
			}
		}
	})
	run(t, w)
	if e1.Stats().Reordered == 0 {
		t.Error("nothing arrived out of order: the resequencing hold was not exercised")
	}
}

func TestParkedArrivalsKeepTheirBytes(t *testing.T) {
	faults := simnet.RailFaults{DupProb: 0.25, ReorderProb: 0.4}
	t.Run("plain", func(t *testing.T) {
		w, e0, e1 := faultyPair(t, DefaultOptions(), simnet.FaultProfile{Seed: 3, Rails: []simnet.RailFaults{faults}})
		parkedArrivals(t, w, e0, e1)
	})
	t.Run("reliable-lossy", func(t *testing.T) {
		faults.DropProb = 0.15
		w, e0, e1 := lossyPair(t, DefaultOptions(), simnet.FaultProfile{Seed: 3, Rails: []simnet.RailFaults{faults}})
		parkedArrivals(t, w, e0, e1)
		if e0.Stats().Retransmits == 0 {
			t.Error("15% drop produced no retransmission")
		}
	})
}

// TestStableReadsRetainedFramesFirst: a reissue after completion takes
// each stretch of the body from the retained frame that holds it and
// only the stretches no frame holds from the caller's memory.
func TestStableReadsRetainedFramesFirst(t *testing.T) {
	var list *simnet.FrameList
	sent := make([]byte, 200)
	fillSeq(sent, 1)
	rs := &rdvSend{
		body: iovec{bytes.Repeat([]byte{0xEE}, 120), bytes.Repeat([]byte{0xEE}, 80)}, // overwritten since
		kept: []keptChunk{
			{off: 150, fr: list.New([][]byte{sent[150:200]})},
			{off: 0, fr: list.New([][]byte{sent[0:60], sent[60:100]})},
		},
	}
	want := append([]byte(nil), sent...)
	copy(want[100:150], bytes.Repeat([]byte{0xEE}, 50)) // eager span: no frame kept
	for _, span := range [][2]int{{0, 200}, {50, 120}, {100, 50}, {99, 2}, {160, 40}, {10, 0}} {
		off, n := span[0], span[1]
		var got []byte
		for _, s := range rs.stable(off, n) {
			got = append(got, s...)
		}
		if !bytes.Equal(got, want[off:off+n]) {
			t.Errorf("stable(%d, %d) returned %d bytes that are not the retained ones", off, n, len(got))
		}
	}
}
