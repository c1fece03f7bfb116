package core

import (
	"bytes"
	"testing"

	"nmad/internal/sim"
	"nmad/internal/simnet"
)

// TestRendezvousBufferReusableOnceWaitReturns: a completed send's memory
// is the caller's again, and a received body holds exactly the bytes the
// send was posted with. Under reliability RDMA fragments can be lost
// below the link layer and the receiver may ask for a span again; the
// send completes only when the receiver reports its body landed, so no
// reissue reads what the caller has put in the buffer since. Without
// reliability a duplicating fabric delivers some body fragments twice;
// each byte counts once, so the receive completes only when its last
// chunk has landed — on an RDMA rail chunked by BodyChunk and on TCP's
// eager body chunks alike.
func TestRendezvousBufferReusableOnceWaitReturns(t *testing.T) {
	const bodies = 8
	const size = 256 << 10
	reliable, chunked := DefaultOptions(), DefaultOptions()
	reliable.Reliability = true
	chunked.BodyChunk = 64 << 10
	dup := simnet.FaultProfile{Seed: 9, Rails: []simnet.RailFaults{{DupProb: 0.5}}}
	for _, tc := range []struct {
		name   string
		opts   Options
		faults simnet.FaultProfile
		prof   simnet.Profile
	}{
		{"reliable-lossy", reliable, simnet.FaultProfile{Seed: 9, Rails: []simnet.RailFaults{{DropProb: 0.25}}}, simnet.MX10G()},
		{"dup-mx-chunked", chunked, dup, simnet.MX10G()},
		{"dup-tcp", DefaultOptions(), dup, simnet.TCPGbE()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, e0, e1 := faultyPair(t, tc.opts, tc.faults, tc.prof)
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
						t.Fatalf("recv %d: body differs from what was sent — it completed before its last chunk landed, or a reissued span read the reused send buffer", i)
					}
				}
			})
			run(t, w)
			if tc.opts.Reliability && e0.Stats().BodyReissues == 0 {
				t.Error("no body span was reissued: the test exercised nothing")
			}
			if len(e0.rdvSend) != 0 {
				t.Errorf("%d rendezvous transactions never retired", len(e0.rdvSend))
			}
		})
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
