package core

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"nmad/internal/drivers"
	"nmad/internal/sim"
	"nmad/internal/simnet"
)

// attachRail opens a driver for one network of the fabric on an engine.
func attachRail(t *testing.T, e *Engine, net *simnet.Network) {
	t.Helper()
	drv, err := drivers.New(net, e.NodeID())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Attach(drv); err != nil {
		t.Fatal(err)
	}
}

// TestLateAttachPinFailRecover attaches a second rail to engines whose
// gates already exist and have carried traffic: Attach must grow every
// live gate's window and views (the per-gate state it still owns) and the
// new rail's record must take pinned sends, fail over and recover like
// one attached from the start. Rail 1 is dark for its first 3 ms, so it
// is attached into an outage.
func TestLateAttachPinFailRecover(t *testing.T) {
	opts := DefaultOptions()
	opts.Reliability = true
	opts.RetransmitTimeout = 100 * sim.Microsecond
	opts.RetransmitBudget = 3
	w := sim.NewWorld()
	f := simnet.NewFabric(w, 2, simnet.DefaultHost())
	for range 2 {
		if _, err := f.AddNetwork(simnet.MX10G()); err != nil {
			t.Fatal(err)
		}
	}
	fp := simnet.FaultProfile{Seed: 2, Rails: []simnet.RailFaults{
		{},
		{Outages: []simnet.Outage{{At: 0, Duration: 3 * sim.Millisecond}}},
	}}
	if err := f.SetFaults(fp); err != nil {
		t.Fatal(err)
	}
	var es [2]*Engine
	for id := range es {
		e, err := New(f, simnet.NodeID(id), opts)
		if err != nil {
			t.Fatal(err)
		}
		attachRail(t, e, f.Networks()[0])
		es[id] = e
	}
	e0, e1 := es[0], es[1]

	msgs := make([][]byte, 3)
	for i := range msgs {
		msgs[i] = make([]byte, 512)
		fillSeq(msgs[i], byte(i))
	}
	var carriedBefore int64
	w.Spawn("send", func(p *sim.Proc) {
		g := e0.Gate(1)
		if err := g.Isend(p, 9, msgs[0]).Wait(p); err != nil {
			t.Errorf("send on rail 0: %v", err)
		}
		if err := g.Isend(p, 9, msgs[1], OnRail(1)).Wait(p); !errors.Is(err, ErrBadRail) {
			t.Errorf("send pinned to a rail not attached yet: %v, want ErrBadRail", err)
		}
		attachRail(t, e0, f.Networks()[1])
		attachRail(t, e1, f.Networks()[1])
		for _, e := range es {
			for _, g := range e.gateOrder {
				if len(g.win.perDriver) != 2 || len(g.views) != 2 || g.views[1].drv != 1 {
					t.Errorf("node %d gate to %d after Attach: %d pinned lists, %d views", e.NodeID(), g.peer, len(g.win.perDriver), len(g.views))
				}
			}
		}
		// Pinned into the outage: the frame exhausts its budget on rail 1,
		// the rail fails and the frame is re-issued over rail 0.
		if err := g.Isend(p, 9, msgs[1], OnRail(1)).Wait(p); err != nil {
			t.Errorf("pinned send during the outage: %v", err)
		}
		p.Sleep(sim.Millisecond)
		if r := e0.rails[1]; !r.failed || !r.probing || e0.rails[0].failed {
			t.Errorf("1 ms into the outage: rail 1 %+v, rail 0 failed %v", *r, e0.rails[0].failed)
		}
		// Past the outage plus a probe interval the rail answers again.
		p.Sleep(3 * sim.Millisecond)
		carriedBefore = e0.Stats().PerDriverBytes[1]
		if err := g.Isend(p, 9, msgs[2], OnRail(1)).Wait(p); err != nil {
			t.Errorf("pinned send after recovery: %v", err)
		}
	})
	w.Spawn("recv", func(p *sim.Proc) {
		for i, want := range msgs {
			buf := make([]byte, 512)
			n, err := e1.Gate(0).Recv(p, 9, buf)
			if err != nil || !bytes.Equal(buf[:n], want) {
				t.Errorf("recv %d: %d bytes, err %v, payload intact %v", i, n, err, bytes.Equal(buf[:n], want))
			}
		}
	})
	run(t, w)

	st := e0.Stats()
	if st.FailedRails != 1 || st.RecoveredRails != 1 {
		t.Errorf("FailedRails %d RecoveredRails %d, want 1 and 1", st.FailedRails, st.RecoveredRails)
	}
	if e0.rails[1].failed || e0.rails[1].probing || st.Retransmits == 0 {
		t.Errorf("rail 1 after recovery: %+v, %d retransmits", *e0.rails[1], st.Retransmits)
	}
	if len(st.PerDriverBytes) != 2 || len(e0.Drivers()) != 2 {
		t.Fatalf("PerDriverBytes %v, %d drivers: want two rails", st.PerDriverBytes, len(e0.Drivers()))
	}
	if got := st.PerDriverBytes[1] - carriedBefore; got != 512 {
		t.Errorf("the recovered rail carried %d bytes of the last pinned send, want 512", got)
	}
	if !e0.WindowEmpty() {
		t.Error("window not drained")
	}
}

// sliceLens returns the length of every slice reachable from v through
// struct fields (not through pointers), keyed by field path.
func sliceLens(v reflect.Value, path string, into map[string]int) {
	for i := range v.NumField() {
		f, name := v.Field(i), path+v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Slice:
			into[name] = f.Len()
		case reflect.Struct:
			sliceLens(f, name+".", into)
		}
	}
}

// TestEngineHasOnePerRailSlice: per-rail state lives on the rail record,
// so Attach grows exactly one slice of the engine — Engine.rails — however
// much traffic (rendezvous planning included, which sizes the rail-survey
// scratch) has gone before.
func TestEngineHasOnePerRailSlice(t *testing.T) {
	w := sim.NewWorld()
	f := simnet.NewFabric(w, 2, simnet.DefaultHost())
	for range 3 {
		if _, err := f.AddNetwork(simnet.MX10G()); err != nil {
			t.Fatal(err)
		}
	}
	opts := DefaultOptions()
	opts.Strategy = "split"
	var es [2]*Engine
	for id := range es {
		e, err := New(f, simnet.NodeID(id), opts)
		if err != nil {
			t.Fatal(err)
		}
		es[id] = e
	}
	for n, net := range f.Networks() {
		before := map[string]int{}
		sliceLens(reflect.ValueOf(es[0]).Elem(), "", before)
		attachRail(t, es[0], net)
		attachRail(t, es[1], net)
		after := map[string]int{}
		sliceLens(reflect.ValueOf(es[0]).Elem(), "", after)
		for name, l := range after {
			if grew := l - before[name]; name == "rails" && grew != 1 || name != "rails" && grew != 0 {
				t.Errorf("attaching rail %d grew Engine.%s by %d: per-rail state belongs on the rail record", n, name, grew)
			}
		}
		if len(es[0].rails) != n+1 {
			t.Fatalf("%d rail records after %d attaches", len(es[0].rails), n+1)
		}
		// An eager and a rendezvous message over what is attached so far.
		w.Spawn("send", func(p *sim.Proc) {
			es[0].Gate(1).Isend(p, 1, make([]byte, 256))
			es[0].Gate(1).Isend(p, 1, make([]byte, 1<<20))
		})
		w.Spawn("recv", func(p *sim.Proc) {
			for _, size := range []int{256, 1 << 20} {
				if _, err := es[1].Gate(0).Recv(p, 1, make([]byte, size)); err != nil {
					t.Errorf("recv: %v", err)
				}
			}
		})
		run(t, w)
	}
}

// TestTagTableBothSides: a tagTable keeps one zero-initialised value per
// tag, stable across lookups, in its flat slots and past them.
func TestTagTableBothSides(t *testing.T) {
	var tt tagTable[int]
	for round := 1; round <= 3; round++ {
		for tag := Tag(0); tag < 3*tagSlots; tag++ {
			v := tt.at(tag << 40)
			if *v != (round-1)*int(tag+1) {
				t.Fatalf("round %d tag %d: value %d", round, tag, *v)
			}
			*v += int(tag + 1)
		}
	}
	if tt.n != tagSlots || len(tt.more) != 2*tagSlots {
		t.Errorf("%d slots and %d map entries for %d tags", tt.n, len(tt.more), 3*tagSlots)
	}
}
