package core

import (
	"bytes"
	"errors"
	"testing"

	"nmad/internal/sim"
	"nmad/internal/simnet"
	"nmad/sched"
)

// testWorld builds a 2-node fabric with the given networks and one engine
// per node, both using opts.
func testWorld(t *testing.T, opts Options, profs ...simnet.Profile) (*sim.World, *Engine, *Engine) {
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

func run(t *testing.T, w *sim.World) {
	t.Helper()
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWireHeaderRoundTrip(t *testing.T) {
	h := header{kind: kindRTS, flags: flagPriority | flagUnordered, tag: 0xDEADBEEFCAFE, seq: 42, length: 1 << 20, aux: 7}
	enc := encodeHeader(nil, h)
	if len(enc) != headerSize {
		t.Fatalf("encoded header is %d bytes, want %d", len(enc), headerSize)
	}
	got, err := decodeHeader(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("round trip %+v, want %+v", got, h)
	}
}

func TestWireDecodeRejectsGarbage(t *testing.T) {
	if _, err := decodeHeader([]byte{1, 2, 3}); !errors.Is(err, errBadWire) {
		t.Errorf("short header: %v, want ErrBadWire", err)
	}
	bad := encodeHeader(nil, header{kind: kindData})
	bad[0] = 0x00
	if _, err := decodeHeader(bad); !errors.Is(err, errBadWire) {
		t.Errorf("bad magic: %v, want ErrBadWire", err)
	}
	bad2 := encodeHeader(nil, header{kind: kindData})
	bad2[1] = 99
	if _, err := decodeHeader(bad2); !errors.Is(err, errBadWire) {
		t.Errorf("bad kind: %v, want ErrBadWire", err)
	}
	// Truncated payload.
	train := encodeHeader(nil, header{kind: kindData, length: 100})
	if err := walkEntries(train, func(header, []byte) error { return nil }); !errors.Is(err, errBadWire) {
		t.Errorf("truncated payload: %v, want ErrBadWire", err)
	}
}

func TestWireTrainWalk(t *testing.T) {
	var train []byte
	train = encodeHeader(train, header{kind: kindRTS, tag: 1, seq: 0, length: 5000, aux: 9})
	train = encodeHeader(train, header{kind: kindData, tag: 2, seq: 3, length: 4})
	train = append(train, 'a', 'b', 'c', 'd')
	train = encodeHeader(train, header{kind: kindCTS, tag: 1, aux: 9})
	var kinds []entryKind
	var payloads []string
	err := walkEntries(train, func(h header, p []byte) error {
		kinds = append(kinds, h.kind)
		payloads = append(payloads, string(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(kinds) != 3 || kinds[0] != kindRTS || kinds[1] != kindData || kinds[2] != kindCTS {
		t.Errorf("kinds %v, want [rts data cts]", kinds)
	}
	if payloads[1] != "abcd" {
		t.Errorf("data payload %q, want abcd", payloads[1])
	}
}

func TestBasicSendRecv(t *testing.T) {
	w, e0, e1 := testWorld(t, DefaultOptions())
	msg := []byte("the quick brown fox")
	buf := make([]byte, 64)
	var n int
	w.Spawn("recv", func(p *sim.Proc) {
		var err error
		n, err = e1.Gate(0).Recv(p, 7, buf)
		if err != nil {
			t.Error(err)
		}
	})
	w.Spawn("send", func(p *sim.Proc) {
		if err := e0.Gate(1).Send(p, 7, msg); err != nil {
			t.Error(err)
		}
	})
	run(t, w)
	if n != len(msg) || !bytes.Equal(buf[:n], msg) {
		t.Errorf("received %q (%d bytes), want %q", buf[:n], n, msg)
	}
}

func TestUnexpectedMessageThenRecv(t *testing.T) {
	w, e0, e1 := testWorld(t, DefaultOptions())
	msg := []byte("early bird")
	got := make([]byte, 32)
	var n int
	w.Spawn("send", func(p *sim.Proc) {
		if err := e0.Gate(1).Send(p, 3, msg); err != nil {
			t.Error(err)
		}
	})
	w.Spawn("recv", func(p *sim.Proc) {
		p.Sleep(100 * sim.Microsecond) // message arrives first
		if e1.Gate(0).PendingUnexpected() != 1 {
			t.Errorf("unexpected queue holds %d, want 1", e1.Gate(0).PendingUnexpected())
		}
		var err error
		n, err = e1.Gate(0).Recv(p, 3, got)
		if err != nil {
			t.Error(err)
		}
	})
	run(t, w)
	if n != len(msg) || !bytes.Equal(got[:n], msg) {
		t.Errorf("received %q, want %q", got[:n], msg)
	}
	if e1.Stats().Unexpected != 1 {
		t.Errorf("Unexpected stat = %d, want 1", e1.Stats().Unexpected)
	}
}

func TestManyTagsManyMessages(t *testing.T) {
	w, e0, e1 := testWorld(t, DefaultOptions())
	const tags, per = 5, 8
	rng := sim.NewRNG(99)
	want := map[[2]int][]byte{}
	for tg := 0; tg < tags; tg++ {
		for i := 0; i < per; i++ {
			b := make([]byte, rng.Range(1, 300))
			rng.Bytes(b)
			want[[2]int{tg, i}] = b
		}
	}
	w.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < per; i++ {
			for tg := 0; tg < tags; tg++ {
				e0.Gate(1).Isend(p, Tag(tg), want[[2]int{tg, i}])
			}
		}
	})
	w.Spawn("recv", func(p *sim.Proc) {
		for tg := 0; tg < tags; tg++ {
			for i := 0; i < per; i++ {
				buf := make([]byte, 512)
				n, err := e1.Gate(0).Recv(p, Tag(tg), buf)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf[:n], want[[2]int{tg, i}]) {
					t.Fatalf("tag %d msg %d corrupted", tg, i)
				}
			}
		}
	})
	run(t, w)
	if !e0.WindowEmpty() {
		t.Error("sender window did not drain")
	}
}

func TestPerFlowOrderingPreserved(t *testing.T) {
	// Messages on one flow must be received in submission order even
	// though the aggregation strategy may reorder them on the wire.
	w, e0, e1 := testWorld(t, DefaultOptions())
	const n = 20
	w.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			e0.Gate(1).Isend(p, 1, []byte{byte(i)})
		}
	})
	var got []byte
	w.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			buf := make([]byte, 1)
			if _, err := e1.Gate(0).Recv(p, 1, buf); err != nil {
				t.Fatal(err)
			}
			got = append(got, buf[0])
		}
	})
	run(t, w)
	for i := range got {
		if got[i] != byte(i) {
			t.Fatalf("flow order broken: position %d holds %d", i, got[i])
		}
	}
}

func TestRendezvousLargeMessage(t *testing.T) {
	for _, strat := range []string{"default", "aggreg", "split", "prio"} {
		strat := strat
		t.Run(strat, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Strategy = strat
			w, e0, e1 := testWorld(t, opts)
			big := make([]byte, 1<<20)
			sim.NewRNG(5).Bytes(big)
			buf := make([]byte, len(big))
			w.Spawn("recv", func(p *sim.Proc) {
				n, err := e1.Gate(0).Recv(p, 9, buf)
				if err != nil {
					t.Error(err)
				}
				if n != len(big) {
					t.Errorf("received %d bytes, want %d", n, len(big))
				}
			})
			w.Spawn("send", func(p *sim.Proc) {
				if err := e0.Gate(1).Send(p, 9, big); err != nil {
					t.Error(err)
				}
			})
			run(t, w)
			if !bytes.Equal(buf, big) {
				t.Error("rendezvous body corrupted")
			}
			st := e0.Stats()
			if st.RdvStarted != 1 || st.RdvCompleted != 1 {
				t.Errorf("rdv stats %d/%d, want 1/1", st.RdvStarted, st.RdvCompleted)
			}
			if st.BodyBytes != int64(len(big)) {
				t.Errorf("BodyBytes = %d, want %d", st.BodyBytes, len(big))
			}
		})
	}
}

func TestRendezvousUnexpectedRTS(t *testing.T) {
	// RTS arrives before the receive is posted: the body must wait (no
	// data buffered) and still land zero-copy once the receive exists.
	w, e0, e1 := testWorld(t, DefaultOptions())
	big := make([]byte, 256<<10)
	sim.NewRNG(6).Bytes(big)
	buf := make([]byte, len(big))
	w.Spawn("send", func(p *sim.Proc) {
		if err := e0.Gate(1).Send(p, 4, big); err != nil {
			t.Error(err)
		}
	})
	w.Spawn("recv", func(p *sim.Proc) {
		p.Sleep(200 * sim.Microsecond)
		if e1.Gate(0).PendingUnexpected() != 1 {
			t.Errorf("RTS not parked: unexpected=%d", e1.Gate(0).PendingUnexpected())
		}
		if _, err := e1.Gate(0).Recv(p, 4, buf); err != nil {
			t.Error(err)
		}
	})
	run(t, w)
	if !bytes.Equal(buf, big) {
		t.Error("late-posted rendezvous corrupted")
	}
}

func TestTruncatedEagerRecv(t *testing.T) {
	w, e0, e1 := testWorld(t, DefaultOptions())
	w.Spawn("send", func(p *sim.Proc) {
		e0.Gate(1).Isend(p, 2, []byte("0123456789"))
	})
	w.Spawn("recv", func(p *sim.Proc) {
		buf := make([]byte, 4)
		req := e1.Gate(0).Irecv(p, 2, buf)
		if err := req.Wait(p); !errors.Is(err, ErrTruncated) {
			t.Errorf("err = %v, want ErrTruncated", err)
		}
		if req.N() != 4 || string(buf) != "0123" {
			t.Errorf("partial payload %q (n=%d), want 0123", buf, req.N())
		}
	})
	run(t, w)
}

func TestTruncatedRendezvousRecv(t *testing.T) {
	w, e0, e1 := testWorld(t, DefaultOptions())
	big := make([]byte, 128<<10)
	w.Spawn("send", func(p *sim.Proc) {
		if err := e0.Gate(1).Send(p, 2, big); err != nil {
			t.Error(err)
		}
	})
	w.Spawn("recv", func(p *sim.Proc) {
		buf := make([]byte, 1000)
		req := e1.Gate(0).Irecv(p, 2, buf)
		if err := req.Wait(p); !errors.Is(err, ErrTruncated) {
			t.Errorf("err = %v, want ErrTruncated", err)
		}
		if req.N() != 1000 {
			t.Errorf("N = %d, want the buffer length", req.N())
		}
	})
	run(t, w)
}

func TestMaskedRecvMatchesAnyTagInSpace(t *testing.T) {
	w, e0, e1 := testWorld(t, DefaultOptions())
	const space = Tag(0x5) << 32
	mask := Tag(0xFFFFFFFF00000000)
	w.Spawn("send", func(p *sim.Proc) {
		e0.Gate(1).Isend(p, space|123, []byte("in-space"))
	})
	w.Spawn("recv", func(p *sim.Proc) {
		buf := make([]byte, 32)
		req := e1.Gate(0).IrecvMasked(p, space, mask, buf)
		if err := req.Wait(p); err != nil {
			t.Fatal(err)
		}
		if req.Tag() != space|123 {
			t.Errorf("matched tag %#x, want %#x", req.Tag(), space|123)
		}
		if string(buf[:req.N()]) != "in-space" {
			t.Errorf("payload %q", buf[:req.N()])
		}
	})
	run(t, w)
}

func TestMaskedRecvIgnoresOtherSpace(t *testing.T) {
	w, e0, e1 := testWorld(t, DefaultOptions())
	const spaceA, spaceB = Tag(0xA) << 32, Tag(0xB) << 32
	mask := Tag(0xFFFFFFFF00000000)
	w.Spawn("send", func(p *sim.Proc) {
		e0.Gate(1).Isend(p, spaceB|1, []byte("B"))
		e0.Gate(1).Isend(p, spaceA|1, []byte("A"))
	})
	w.Spawn("recv", func(p *sim.Proc) {
		bufA := make([]byte, 8)
		reqA := e1.Gate(0).IrecvMasked(p, spaceA, mask, bufA)
		if err := reqA.Wait(p); err != nil {
			t.Fatal(err)
		}
		if string(bufA[:reqA.N()]) != "A" {
			t.Errorf("space-A receive got %q", bufA[:reqA.N()])
		}
		bufB := make([]byte, 8)
		reqB := e1.Gate(0).IrecvMasked(p, spaceB, mask, bufB)
		if err := reqB.Wait(p); err != nil {
			t.Fatal(err)
		}
		if string(bufB[:reqB.N()]) != "B" {
			t.Errorf("space-B receive got %q", bufB[:reqB.N()])
		}
	})
	run(t, w)
}

func TestAggregationAcrossFlows(t *testing.T) {
	// Several small sends on different tags submitted back-to-back: the
	// aggregation strategy must coalesce the backlog into fewer physical
	// packets — the paper's headline mechanism.
	w, e0, e1 := testWorld(t, DefaultOptions())
	const n = 12
	w.Spawn("send", func(p *sim.Proc) {
		reqs := make([]*SendRequest, n)
		for i := 0; i < n; i++ {
			reqs[i] = e0.Gate(1).Isend(p, Tag(i), make([]byte, 64))
		}
		for _, r := range reqs {
			if err := r.Wait(p); err != nil {
				t.Error(err)
			}
		}
	})
	w.Spawn("recv", func(p *sim.Proc) {
		reqs := make([]*RecvRequest, n)
		for i := 0; i < n; i++ {
			reqs[i] = e1.Gate(0).Irecv(p, Tag(i), make([]byte, 64))
		}
		for _, r := range reqs {
			if err := r.Wait(p); err != nil {
				t.Error(err)
			}
		}
	})
	run(t, w)
	st := e0.Stats()
	if st.EntriesSent != n {
		t.Fatalf("EntriesSent = %d, want %d", st.EntriesSent, n)
	}
	if st.OutputPackets >= n {
		t.Errorf("no aggregation happened: %d packets for %d sends", st.OutputPackets, n)
	}
	if st.AggregatedPackets == 0 {
		t.Error("AggregatedPackets = 0; the window never coalesced anything")
	}
	if st.AggregationRatio() <= 1.5 {
		t.Errorf("aggregation ratio %.2f, want > 1.5", st.AggregationRatio())
	}
}

func TestDefaultStrategyNeverAggregates(t *testing.T) {
	opts := DefaultOptions()
	opts.Strategy = "default"
	w, e0, e1 := testWorld(t, opts)
	const n = 10
	w.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			e0.Gate(1).Isend(p, Tag(i), make([]byte, 32))
		}
	})
	w.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if err := e1.Gate(0).Irecv(p, Tag(i), make([]byte, 32)).Wait(p); err != nil {
				t.Error(err)
			}
		}
	})
	run(t, w)
	st := e0.Stats()
	if st.OutputPackets != n || st.AggregatedPackets != 0 {
		t.Errorf("default strategy sent %d packets (%d aggregated) for %d sends; want 1:1",
			st.OutputPackets, st.AggregatedPackets, n)
	}
}

func TestAggregationFasterThanDefault(t *testing.T) {
	// The paper's Figure 3 in miniature: a burst of small sends completes
	// sooner with the aggregation strategy than without.
	elapsed := func(strategy string) sim.Time {
		opts := DefaultOptions()
		opts.Strategy = strategy
		w, e0, e1 := testWorld(t, opts)
		var done sim.Time
		w.Spawn("send", func(p *sim.Proc) {
			for i := 0; i < 16; i++ {
				e0.Gate(1).Isend(p, Tag(i), make([]byte, 256))
			}
		})
		w.Spawn("recv", func(p *sim.Proc) {
			reqs := make([]*RecvRequest, 16)
			for i := range reqs {
				reqs[i] = e1.Gate(0).Irecv(p, Tag(i), make([]byte, 256))
			}
			for _, r := range reqs {
				if err := r.Wait(p); err != nil {
					t.Error(err)
				}
			}
			done = p.Now()
		})
		run(t, w)
		return done
	}
	agg, def := elapsed("aggreg"), elapsed("default")
	if agg >= def {
		t.Errorf("aggreg finished at %v, default at %v: the window must win", agg, def)
	}
}

func TestCtrlPiggybacksOnData(t *testing.T) {
	// A large send queued together with small sends: the RTS should share
	// a physical packet with small data (§5.3's key trick).
	w, e0, e1 := testWorld(t, DefaultOptions())
	big := make([]byte, 512<<10)
	w.Spawn("send", func(p *sim.Proc) {
		// The first wrapper departs immediately (just-in-time scheduling);
		// it occupies the NIC so the rest of the burst accumulates.
		e0.Gate(1).Isend(p, 99, make([]byte, 64))
		e0.Gate(1).Isend(p, 1, big)
		for i := 0; i < 4; i++ {
			e0.Gate(1).Isend(p, Tag(10+i), make([]byte, 64))
		}
	})
	w.Spawn("recv", func(p *sim.Proc) {
		var reqs []*RecvRequest
		reqs = append(reqs, e1.Gate(0).Irecv(p, 99, make([]byte, 64)))
		reqs = append(reqs, e1.Gate(0).Irecv(p, 1, make([]byte, len(big))))
		for i := 0; i < 4; i++ {
			reqs = append(reqs, e1.Gate(0).Irecv(p, Tag(10+i), make([]byte, 64)))
		}
		for _, r := range reqs {
			if err := r.Wait(p); err != nil {
				t.Error(err)
			}
		}
	})
	run(t, w)
	if e0.Stats().CtrlPiggybacked == 0 {
		t.Error("the rendezvous request never shared a packet with data")
	}
}

func TestMultiRailSplitUsesBothRails(t *testing.T) {
	opts := DefaultOptions()
	opts.Strategy = "split"
	w, e0, e1 := testWorld(t, opts, simnet.MX10G(), simnet.QsNetII())
	big := make([]byte, 4<<20)
	sim.NewRNG(11).Bytes(big)
	buf := make([]byte, len(big))
	w.Spawn("recv", func(p *sim.Proc) {
		if _, err := e1.Gate(0).Recv(p, 1, buf); err != nil {
			t.Error(err)
		}
	})
	w.Spawn("send", func(p *sim.Proc) {
		if err := e0.Gate(1).Send(p, 1, big); err != nil {
			t.Error(err)
		}
	})
	run(t, w)
	if !bytes.Equal(buf, big) {
		t.Fatal("split body corrupted")
	}
	st := e0.Stats()
	if st.PerDriverBytes[0] == 0 || st.PerDriverBytes[1] == 0 {
		t.Errorf("per-rail bytes %v: both rails must carry body bytes", st.PerDriverBytes)
	}
	ratio := float64(st.PerDriverBytes[0]) / float64(st.PerDriverBytes[0]+st.PerDriverBytes[1])
	if ratio < 0.45 || ratio > 0.75 {
		t.Errorf("MX share %.2f, want roughly its bandwidth fraction (~0.58)", ratio)
	}
}

func TestMultiRailFasterThanSingle(t *testing.T) {
	transfer := func(twoRails bool) sim.Time {
		opts := DefaultOptions()
		opts.Strategy = "split"
		profs := []simnet.Profile{simnet.MX10G()}
		if twoRails {
			profs = append(profs, simnet.QsNetII())
		}
		w, e0, e1 := testWorld(t, opts, profs...)
		big := make([]byte, 8<<20)
		var done sim.Time
		w.Spawn("recv", func(p *sim.Proc) {
			if _, err := e1.Gate(0).Recv(p, 1, make([]byte, len(big))); err != nil {
				t.Error(err)
			}
			done = p.Now()
		})
		w.Spawn("send", func(p *sim.Proc) {
			if err := e0.Gate(1).Send(p, 1, big); err != nil {
				t.Error(err)
			}
		})
		run(t, w)
		return done
	}
	two, one := transfer(true), transfer(false)
	if two >= one {
		t.Errorf("two rails %v, one rail %v: splitting must win on an 8MB body", two, one)
	}
	speedup := float64(one) / float64(two)
	if speedup < 1.3 {
		t.Errorf("speedup %.2fx, want >= 1.3x from adding a 900MB/s rail to a 1250MB/s one", speedup)
	}
}

func TestPackUnpackMessage(t *testing.T) {
	w, e0, e1 := testWorld(t, DefaultOptions())
	pieces := [][]byte{[]byte("alpha"), []byte("beta"), make([]byte, 5000), []byte("delta")}
	sim.NewRNG(3).Bytes(pieces[2])
	w.Spawn("send", func(p *sim.Proc) {
		m := e0.Gate(1).BeginPack(p, 21)
		for _, piece := range pieces {
			m.Pack(p, piece)
		}
		if err := m.End(p); err != nil {
			t.Error(err)
		}
	})
	got := make([][]byte, len(pieces))
	w.Spawn("recv", func(p *sim.Proc) {
		m := e1.Gate(0).BeginUnpack(p, 21)
		for i, piece := range pieces {
			got[i] = make([]byte, len(piece))
			m.Unpack(p, got[i])
		}
		if err := m.End(p); err != nil {
			t.Error(err)
		}
	})
	run(t, w)
	for i := range pieces {
		if !bytes.Equal(got[i], pieces[i]) {
			t.Errorf("piece %d corrupted", i)
		}
	}
}

func TestPackEndCompletesOnlyWhenSent(t *testing.T) {
	w, e0, e1 := testWorld(t, DefaultOptions())
	w.Spawn("recv", func(p *sim.Proc) {
		m := e1.Gate(0).BeginUnpack(p, 5)
		m.Unpack(p, make([]byte, 10))
		if err := m.End(p); err != nil {
			t.Error(err)
		}
	})
	w.Spawn("send", func(p *sim.Proc) {
		m := e0.Gate(1).BeginPack(p, 5)
		m.Pack(p, []byte("0123456789"))
		if m.Request().Test() {
			t.Error("request complete before End")
		}
		if err := m.End(p); err != nil {
			t.Error(err)
		}
		if !m.Request().Test() {
			t.Error("request incomplete after End")
		}
	})
	run(t, w)
}

func TestPriorityStrategyDeliversUrgentFirst(t *testing.T) {
	// Queue bulk data then a priority piece while the NIC is busy; with
	// the prio strategy the priority piece must arrive before the queued
	// bulk.
	opts := DefaultOptions()
	opts.Strategy = "prio"
	w, e0, e1 := testWorld(t, opts)
	g := e0.Gate(1)
	var order []string
	w.Spawn("send", func(p *sim.Proc) {
		// Bulk: several medium pieces that keep the NIC busy.
		for i := 0; i < 8; i++ {
			g.Isend(p, Tag(100+i), make([]byte, 8<<10))
		}
		// Urgent piece submitted last.
		g.Isend(p, 999, []byte("rpc-service-id"), Priority())
	})
	w.Spawn("recv", func(p *sim.Proc) {
		var reqs []*RecvRequest
		urgent := e1.Gate(0).Irecv(p, 999, make([]byte, 32))
		for i := 0; i < 8; i++ {
			reqs = append(reqs, e1.Gate(0).Irecv(p, Tag(100+i), make([]byte, 8<<10)))
		}
		for {
			all := urgent.Test()
			for _, r := range reqs {
				all = all && r.Test()
			}
			if all {
				break
			}
			if urgent.Test() && len(order) == 0 {
				order = append(order, "urgent")
			}
			done := 0
			for _, r := range reqs {
				if r.Test() {
					done++
				}
			}
			if done == len(reqs) && len(order) == 0 {
				order = append(order, "bulk")
			}
			p.Sleep(sim.Microsecond)
		}
	})
	run(t, w)
	if len(order) == 0 || order[0] != "urgent" {
		t.Errorf("delivery order %v, want the priority piece first", order)
	}
}

func TestStatsSubmittedAndWindow(t *testing.T) {
	w, e0, e1 := testWorld(t, DefaultOptions())
	w.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			e0.Gate(1).Isend(p, 1, []byte{1})
		}
	})
	w.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			if _, err := e1.Gate(0).Recv(p, 1, make([]byte, 1)); err != nil {
				t.Error(err)
			}
		}
	})
	run(t, w)
	if got := e0.Stats().Submitted; got != 5 {
		t.Errorf("Submitted = %d, want 5", got)
	}
	if !e0.WindowEmpty() || !e1.WindowEmpty() {
		t.Error("windows must drain at quiescence")
	}
}

func TestEngineRequiresKnownStrategy(t *testing.T) {
	w := sim.NewWorld()
	f := simnet.NewFabric(w, 2, simnet.DefaultHost())
	opts := DefaultOptions()
	opts.Strategy = "nope"
	if _, err := New(f, 0, opts); err == nil {
		t.Error("unknown strategy must fail engine construction")
	}
}

func TestIsendWithoutDriversFails(t *testing.T) {
	w := sim.NewWorld()
	f := simnet.NewFabric(w, 2, simnet.DefaultHost())
	e, err := New(f, 0, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	req := e.Gate(1).Isend(nil, 1, []byte("x"))
	if !req.Done() || req.Err() == nil {
		t.Error("send on a driverless engine should fail immediately")
	}
}

func TestStrategyRegistry(t *testing.T) {
	names := sched.Names()
	want := []string{"adaptive", "aggreg", "default", "prio", "split"}
	if len(names) != len(want) {
		t.Fatalf("registry %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("registry %v, want %v", names, want)
		}
	}
	for _, n := range names {
		s, err := sched.New(n)
		if err != nil || s.Name() != n {
			t.Errorf("sched.New(%q) = %v, %v", n, s, err)
		}
	}
	if _, err := sched.New("bogus"); err == nil {
		t.Error("unknown strategy should error")
	}
}

func TestGateAccessors(t *testing.T) {
	_, e0, _ := testWorld(t, DefaultOptions())
	g := e0.Gate(1)
	if g.Peer() != 1 || g.Engine() != e0 {
		t.Error("gate accessors broken")
	}
	if e0.Gate(1) != g {
		t.Error("Gate must be idempotent per peer")
	}
	if e0.StrategyName() != "aggreg" {
		t.Errorf("StrategyName = %q", e0.StrategyName())
	}
	if e0.NodeID() != 0 {
		t.Errorf("NodeID = %d", e0.NodeID())
	}
	if len(e0.Drivers()) != 1 {
		t.Errorf("Drivers() = %d rails, want 1", len(e0.Drivers()))
	}
}

func TestBidirectionalTraffic(t *testing.T) {
	w, e0, e1 := testWorld(t, DefaultOptions())
	const n = 10
	mk := func(e *Engine, peer simnet.NodeID, name string) {
		w.Spawn(name, func(p *sim.Proc) {
			g := e.Gate(peer)
			for i := 0; i < n; i++ {
				sreq := g.Isend(p, 1, []byte{byte(i)})
				buf := make([]byte, 1)
				rreq := g.Irecv(p, 1, buf)
				if err := sreq.Wait(p); err != nil {
					t.Error(err)
				}
				if err := rreq.Wait(p); err != nil {
					t.Error(err)
				}
				if buf[0] != byte(i) {
					t.Errorf("%s iteration %d got %d", name, i, buf[0])
				}
			}
		})
	}
	mk(e0, 1, "node0")
	mk(e1, 0, "node1")
	run(t, w)
}

func TestZeroByteMessage(t *testing.T) {
	w, e0, e1 := testWorld(t, DefaultOptions())
	w.Spawn("send", func(p *sim.Proc) {
		if err := e0.Gate(1).Send(p, 1, nil); err != nil {
			t.Error(err)
		}
	})
	w.Spawn("recv", func(p *sim.Proc) {
		n, err := e1.Gate(0).Recv(p, 1, make([]byte, 8))
		if err != nil {
			t.Error(err)
		}
		if n != 0 {
			t.Errorf("zero-byte message delivered %d bytes", n)
		}
	})
	run(t, w)
}

func TestCloseShutsDrivers(t *testing.T) {
	_, e0, _ := testWorld(t, DefaultOptions())
	if err := e0.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e0.Close(); err == nil {
		t.Error("double Close should report the driver error")
	}
}
