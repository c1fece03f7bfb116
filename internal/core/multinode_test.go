package core

import (
	"bytes"
	"fmt"
	"testing"

	"nmad/internal/sim"
	"nmad/internal/simnet"
)

// Tests beyond the two-node benches: several gates per engine, rail
// pinning, unordered delivery.

// nWorld builds an n-node MX fabric with one engine per node.
func nWorld(t *testing.T, n int, opts Options, profs ...simnet.Profile) (*sim.World, []*Engine) {
	t.Helper()
	if len(profs) == 0 {
		profs = []simnet.Profile{simnet.MX10G()}
	}
	w := sim.NewWorld()
	f := simnet.NewFabric(w, n, simnet.DefaultHost())
	for _, p := range profs {
		if _, err := f.AddNetwork(p); err != nil {
			t.Fatal(err)
		}
	}
	engines := make([]*Engine, n)
	for i := range engines {
		e, err := New(f, simnet.NodeID(i), opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.AttachFabric(f); err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	return w, engines
}

func TestThreeNodeAllToAll(t *testing.T) {
	const n = 3
	w, engines := nWorld(t, n, DefaultOptions())
	for me := 0; me < n; me++ {
		me := me
		e := engines[me]
		w.Spawn(fmt.Sprintf("node%d", me), func(p *sim.Proc) {
			var sends []*SendRequest
			var recvs []*RecvRequest
			bufs := map[int][]byte{}
			for peer := 0; peer < n; peer++ {
				if peer == me {
					continue
				}
				msg := []byte(fmt.Sprintf("from %d to %d", me, peer))
				sends = append(sends, e.Gate(simnet.NodeID(peer)).Isend(p, 1, msg))
				bufs[peer] = make([]byte, 32)
				recvs = append(recvs, e.Gate(simnet.NodeID(peer)).Irecv(p, 1, bufs[peer]))
			}
			for _, r := range sends {
				if err := r.Wait(p); err != nil {
					t.Error(err)
				}
			}
			for _, r := range recvs {
				if err := r.Wait(p); err != nil {
					t.Error(err)
				}
			}
			for peer, buf := range bufs {
				want := fmt.Sprintf("from %d to %d", peer, me)
				if string(bytes.TrimRight(buf, "\x00")) != want {
					t.Errorf("node %d from %d: %q, want %q", me, peer, bytes.TrimRight(buf, "\x00"), want)
				}
			}
		})
	}
	run(t, w)
}

func TestGateFairnessAcrossPeers(t *testing.T) {
	// One sender, two receivers, a burst to each: round-robin election
	// must serve both gates (neither starves while the other's backlog
	// drains).
	const per = 12
	w, engines := nWorld(t, 3, DefaultOptions())
	e0 := engines[0]
	var done1, done2 sim.Time
	w.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < per; i++ {
			e0.Gate(1).Isend(p, Tag(i), make([]byte, 256))
			e0.Gate(2).Isend(p, Tag(i), make([]byte, 256))
		}
	})
	mkRecv := func(node int, done *sim.Time) {
		e := engines[node]
		w.Spawn(fmt.Sprintf("recv%d", node), func(p *sim.Proc) {
			for i := 0; i < per; i++ {
				if _, err := e.Gate(0).Recv(p, Tag(i), make([]byte, 256)); err != nil {
					t.Error(err)
				}
			}
			*done = p.Now()
		})
	}
	mkRecv(1, &done1)
	mkRecv(2, &done2)
	run(t, w)
	ratio := float64(done1) / float64(done2)
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("peer completion skew %.2f (%v vs %v): round-robin should keep gates comparable", ratio, done1, done2)
	}
}

func TestDriverPinningRoutesToOneRail(t *testing.T) {
	w, engines := nWorld(t, 2, DefaultOptions(), simnet.MX10G(), simnet.QsNetII())
	e0, e1 := engines[0], engines[1]
	w.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			e0.Gate(1).Isend(p, Tag(i), make([]byte, 512), OnRail(1))
		}
	})
	w.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			if err := e1.Gate(0).Irecv(p, Tag(i), make([]byte, 512)).Wait(p); err != nil {
				t.Error(err)
			}
		}
	})
	run(t, w)
	st := e0.Stats()
	if st.PerDriverBytes[0] != 0 {
		t.Errorf("rail 0 carried %d bytes despite pinning to rail 1", st.PerDriverBytes[0])
	}
	if st.PerDriverBytes[1] != 8*512 {
		t.Errorf("rail 1 carried %d bytes, want %d", st.PerDriverBytes[1], 8*512)
	}
}

func TestCommonListUsesIdleRails(t *testing.T) {
	// Unpinned traffic load-balances: with a sustained burst on two
	// rails, both should carry bytes (the common-list behaviour of the
	// collect layer, paper §3.3).
	w, engines := nWorld(t, 2, DefaultOptions(), simnet.MX10G(), simnet.QsNetII())
	e0, e1 := engines[0], engines[1]
	const n = 40
	w.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			e0.Gate(1).Isend(p, Tag(i), make([]byte, 8<<10))
		}
	})
	w.Spawn("recv", func(p *sim.Proc) {
		reqs := make([]*RecvRequest, n)
		for i := 0; i < n; i++ {
			reqs[i] = e1.Gate(0).Irecv(p, Tag(i), make([]byte, 8<<10))
		}
		for _, r := range reqs {
			if err := r.Wait(p); err != nil {
				t.Error(err)
			}
		}
	})
	run(t, w)
	st := e0.Stats()
	if st.PerDriverBytes[0] == 0 || st.PerDriverBytes[1] == 0 {
		t.Errorf("common-list traffic used rails %v; both should carry load", st.PerDriverBytes)
	}
}

func TestUnorderedFlagBypassesResequencing(t *testing.T) {
	// With flagUnordered the receiver may see submissions out of order;
	// what matters is that all of them arrive and none is held back.
	w, engines := nWorld(t, 2, DefaultOptions())
	e0, e1 := engines[0], engines[1]
	const n = 10
	got := map[byte]bool{}
	w.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			e0.Gate(1).Isend(p, 3, []byte{byte(i)}, Unordered())
		}
	})
	w.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			buf := make([]byte, 1)
			if _, err := e1.Gate(0).Recv(p, 3, buf); err != nil {
				t.Fatal(err)
			}
			got[buf[0]] = true
		}
	})
	run(t, w)
	if len(got) != n {
		t.Errorf("received %d distinct unordered messages, want %d", len(got), n)
	}
}

func TestStatsReorderedCounter(t *testing.T) {
	// Force wire-level reordering within one flow: the aggregation
	// strategy pulls small wrappers past a converted rendezvous request,
	// so later sequence numbers arrive before the rendezvous data
	// completes — exercising the resequencing buffer.
	w, engines := nWorld(t, 2, DefaultOptions())
	e0, e1 := engines[0], engines[1]
	big := make([]byte, 256<<10)
	w.Spawn("send", func(p *sim.Proc) {
		e0.Gate(1).Isend(p, 1, []byte("warm")) // departs alone
		e0.Gate(1).Isend(p, 2, big)            // becomes RTS (seq 0 of tag 2)
		e0.Gate(1).Isend(p, 2, []byte("tail")) // seq 1 of tag 2
	})
	w.Spawn("recv", func(p *sim.Proc) {
		bufWarm := make([]byte, 8)
		bufBig := make([]byte, len(big))
		bufTail := make([]byte, 8)
		r0 := e1.Gate(0).Irecv(p, 1, bufWarm)
		r1 := e1.Gate(0).Irecv(p, 2, bufBig)
		r2 := e1.Gate(0).Irecv(p, 2, bufTail)
		for _, r := range []*RecvRequest{r0, r1, r2} {
			if err := r.Wait(p); err != nil {
				t.Error(err)
			}
		}
		if string(bufTail[:r2.N()]) != "tail" {
			t.Errorf("tail message %q", bufTail[:r2.N()])
		}
		if r1.N() != len(big) {
			t.Errorf("big message %d bytes", r1.N())
		}
	})
	run(t, w)
}
