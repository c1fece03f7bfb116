package core

import (
	"bytes"
	"testing"

	"nmad/internal/sim"
	"nmad/internal/simnet"
	"nmad/internal/trace"
)

func TestSsendCompletesOnlyAfterMatch(t *testing.T) {
	w, e0, e1 := testWorld(t, DefaultOptions())
	var sendDone, recvPosted sim.Time
	w.Spawn("send", func(p *sim.Proc) {
		if err := e0.Gate(1).Ssend(p, 1, []byte("sync")); err != nil {
			t.Error(err)
		}
		sendDone = p.Now()
	})
	w.Spawn("recv", func(p *sim.Proc) {
		p.Sleep(300 * sim.Microsecond) // make the sender wait
		recvPosted = p.Now()
		if _, err := e1.Gate(0).Recv(p, 1, make([]byte, 8)); err != nil {
			t.Error(err)
		}
	})
	run(t, w)
	if sendDone <= recvPosted {
		t.Errorf("Ssend completed at %v, before the receive was posted at %v", sendDone, recvPosted)
	}
}

func TestIsendCompletesWithoutMatch(t *testing.T) {
	// Contrast with Ssend: a plain eager Isend completes once the NIC is
	// done, receiver or not.
	w, e0, e1 := testWorld(t, DefaultOptions())
	var sendDone sim.Time
	w.Spawn("send", func(p *sim.Proc) {
		req := e0.Gate(1).Isend(p, 1, []byte("async"))
		if err := req.Wait(p); err != nil {
			t.Error(err)
		}
		sendDone = p.Now()
	})
	w.Spawn("recv", func(p *sim.Proc) {
		p.Sleep(300 * sim.Microsecond)
		if _, err := e1.Gate(0).Recv(p, 1, make([]byte, 8)); err != nil {
			t.Error(err)
		}
	})
	run(t, w)
	if sendDone >= 300*sim.Microsecond {
		t.Errorf("plain Isend waited for the receiver (done at %v)", sendDone)
	}
}

func TestSsendLargeUsesRendezvousMatch(t *testing.T) {
	// Above the threshold the rendezvous handshake provides the
	// synchronization; no ack entry should be needed, and the data must
	// arrive intact.
	w, e0, e1 := testWorld(t, DefaultOptions())
	big := make([]byte, 512<<10)
	sim.NewRNG(4).Bytes(big)
	buf := make([]byte, len(big))
	var sendDone, recvPosted sim.Time
	w.Spawn("send", func(p *sim.Proc) {
		if err := e0.Gate(1).Ssend(p, 1, big); err != nil {
			t.Error(err)
		}
		sendDone = p.Now()
	})
	w.Spawn("recv", func(p *sim.Proc) {
		p.Sleep(200 * sim.Microsecond)
		recvPosted = p.Now()
		if _, err := e1.Gate(0).Recv(p, 1, buf); err != nil {
			t.Error(err)
		}
	})
	run(t, w)
	if !bytes.Equal(buf, big) {
		t.Fatal("payload corrupted")
	}
	if sendDone <= recvPosted {
		t.Errorf("rendezvous Ssend done at %v before match at %v", sendDone, recvPosted)
	}
}

func TestProbeSeesUnexpected(t *testing.T) {
	w, e0, e1 := testWorld(t, DefaultOptions())
	w.Spawn("send", func(p *sim.Proc) {
		e0.Gate(1).Isend(p, 42, []byte("probe me"))
		e0.Gate(1).Isend(p, 7, make([]byte, 128<<10)) // rendezvous
	})
	w.Spawn("recv", func(p *sim.Proc) {
		g := e1.Gate(0)
		if ok, _, _ := g.Probe(42, ^Tag(0)); ok {
			t.Error("probe hit before anything arrived")
		}
		tag, size := g.ProbeWait(p, 42, ^Tag(0))
		if tag != 42 || size != 8 {
			t.Errorf("probe matched tag=%d size=%d, want 42/8", tag, size)
		}
		// A probed message is not consumed.
		if ok, _, _ := g.Probe(42, ^Tag(0)); !ok {
			t.Error("probe consumed the message")
		}
		// The rendezvous request reports the body size, not the header.
		_, rdvSize := g.ProbeWait(p, 7, ^Tag(0))
		if rdvSize != 128<<10 {
			t.Errorf("probed rendezvous size %d, want the body size", rdvSize)
		}
		// Drain both so the world quiesces.
		if _, err := g.Recv(p, 42, make([]byte, 16)); err != nil {
			t.Error(err)
		}
		if _, err := g.Recv(p, 7, make([]byte, 128<<10)); err != nil {
			t.Error(err)
		}
	})
	run(t, w)

	// A prober parks on its own gate: it returns at the arrival instant
	// of the message it probes for, and an unexpected arrival on another
	// gate does not resume it — the run pushes the same number of events
	// whether that arrival found the prober parked or not yet probing.
	probe := func(startAt sim.Time) (events uint64) {
		rec := trace.NewRecorder()
		opts := DefaultOptions()
		opts.Tracer = rec
		w, engines := nWorld(t, 3, opts)
		w.Spawn("other-gate", func(p *sim.Proc) {
			engines[2].Gate(0).Isend(p, 9, []byte("nobody probes for this"))
		})
		w.Spawn("send", func(p *sim.Proc) {
			p.Sleep(100 * sim.Microsecond)
			engines[1].Gate(0).Isend(p, 42, []byte("probe me"))
		})
		var returned sim.Time
		w.Spawn("probe", func(p *sim.Proc) {
			p.Sleep(startAt)
			engines[0].Gate(1).ProbeWait(p, 42, ^Tag(0))
			returned = p.Now()
			if _, err := engines[0].Gate(1).Recv(p, 42, make([]byte, 16)); err != nil {
				t.Error(err)
			}
			if _, err := engines[0].Gate(2).Recv(p, 9, make([]byte, 32)); err != nil {
				t.Error(err)
			}
		})
		run(t, w)
		for _, ev := range rec.Filter(trace.Unexpected) {
			if ev.Node != 0 {
				continue
			}
			if ev.Tag == 9 && ev.At >= 50*sim.Microsecond {
				t.Fatalf("other gate's message arrived at %v, too late to tell the two runs apart", ev.At)
			}
			if ev.Tag == 42 && returned != ev.At {
				t.Errorf("ProbeWait returned at %v, the message arrived at %v", returned, ev.At)
			}
		}
		return w.Events()
	}
	if parked, notYet := probe(sim.Nanosecond), probe(50*sim.Microsecond); parked != notYet {
		t.Errorf("an unexpected arrival on another gate cost %d events with a prober parked, %d without",
			parked, notYet)
	}
}

// TestEngineOverEveryProfile runs the same mixed workload (eager burst +
// rendezvous) over each of the five ports. This is the only place the
// GM/TCP rendezvous path (eager chunk entries instead of RDMA) gets
// end-to-end coverage.
func TestEngineOverEveryProfile(t *testing.T) {
	for _, prof := range simnet.Profiles() {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			w, e0, e1 := testWorld(t, DefaultOptions(), prof)
			big := make([]byte, 3*prof.RdvThreshold+12345)
			sim.NewRNG(13).Bytes(big)
			buf := make([]byte, len(big))
			w.Spawn("send", func(p *sim.Proc) {
				for i := 0; i < 6; i++ {
					e0.Gate(1).Isend(p, Tag(i), []byte{byte(i)})
				}
				if err := e0.Gate(1).Send(p, 99, big); err != nil {
					t.Error(err)
				}
			})
			w.Spawn("recv", func(p *sim.Proc) {
				for i := 0; i < 6; i++ {
					buf1 := make([]byte, 1)
					if _, err := e1.Gate(0).Recv(p, Tag(i), buf1); err != nil {
						t.Fatal(err)
					}
					if buf1[0] != byte(i) {
						t.Fatalf("small message %d corrupted", i)
					}
				}
				n, err := e1.Gate(0).Recv(p, 99, buf)
				if err != nil {
					t.Fatal(err)
				}
				if n != len(big) || !bytes.Equal(buf, big) {
					t.Fatal("rendezvous body corrupted on " + prof.Name)
				}
			})
			run(t, w)
			st := e0.Stats()
			if st.RdvCompleted != 1 {
				t.Errorf("RdvCompleted = %d on %s", st.RdvCompleted, prof.Name)
			}
			if !prof.RDMA && st.BodyBytes != int64(len(big)) {
				t.Errorf("non-RDMA body bytes %d, want %d (chunk path)", st.BodyBytes, len(big))
			}
		})
	}
}
