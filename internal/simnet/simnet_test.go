package simnet

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"nmad/internal/sim"
)

func testFabric(t *testing.T, prof Profile) (*sim.World, *Fabric, *Network) {
	t.Helper()
	w := sim.NewWorld()
	f := NewFabric(w, 2, DefaultHost())
	net, err := f.AddNetwork(prof)
	if err != nil {
		t.Fatal(err)
	}
	return w, f, net
}

func TestProfilesValidate(t *testing.T) {
	for _, p := range Profiles() {
		if err := p.Validate(); err != nil {
			t.Errorf("built-in profile %s invalid: %v", p.Name, err)
		}
	}
	if len(Profiles()) != 5 {
		t.Errorf("the paper lists five ports; got %d profiles", len(Profiles()))
	}
}

func TestProfileByName(t *testing.T) {
	p, ok := ProfileByName("mx10g")
	if !ok || p.Name != "mx10g" {
		t.Fatalf("ProfileByName(mx10g) = %+v, %v", p, ok)
	}
	if _, ok := ProfileByName("infiniband"); ok {
		t.Error("unknown profile should not resolve")
	}
}

func TestProfileValidateRejectsBadValues(t *testing.T) {
	bad := []Profile{
		{},
		{Name: "x", Bandwidth: -1, PIOBandwidth: 1, MaxSegments: 1},
		{Name: "x", Bandwidth: 1, PIOBandwidth: 0, MaxSegments: 1},
		{Name: "x", Bandwidth: 1, PIOBandwidth: 1, MaxSegments: 0},
		{Name: "x", Bandwidth: 1, PIOBandwidth: 1, MaxSegments: 1, RdvThreshold: -1},
		{Name: "x", Bandwidth: 1, PIOBandwidth: 1, MaxSegments: 1, Latency: -1},
		{Name: "x", Bandwidth: 1, PIOBandwidth: 1, MaxSegments: 1, MTU: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad profile %d validated: %+v", i, p)
		}
	}
}

func TestSingleDelivery(t *testing.T) {
	w, _, net := testFabric(t, MX10G())
	payload := []byte("hello, fabric")
	var got *Delivery
	var at sim.Time
	net.NIC(1).OnRecv(func(d Delivery) { got = &d; at = w.Now() })
	sent := false
	err := net.NIC(0).Submit(&Tx{
		Dst:    1,
		Kind:   TxEager,
		Segs:   [][]byte{payload},
		Aux:    77,
		OnSent: func() { sent = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("payload never delivered")
	}
	if !bytes.Equal(got.Data, payload) || got.Src != 0 || got.Aux != 77 || got.Kind != TxEager {
		t.Errorf("delivery = %+v, want the submitted packet", got)
	}
	if !sent {
		t.Error("OnSent never fired")
	}
	p := net.Profile()
	min := p.SendOverhead + p.Gap + p.Latency + p.RecvOverhead
	if at < min {
		t.Errorf("delivery at %v, faster than the cost-model floor %v", at, min)
	}
}

func TestGatherSnapshotAllowsBufferReuse(t *testing.T) {
	w, _, net := testFabric(t, MX10G())
	var got []byte
	net.NIC(1).OnRecv(func(d Delivery) { got = d.Data })
	a, b := []byte("aaaa"), []byte("bbbb")
	if err := net.NIC(0).Submit(&Tx{Dst: 1, Kind: TxEager, Segs: [][]byte{a, b}}); err != nil {
		t.Fatal(err)
	}
	copy(a, "XXXX") // NIC must have snapshotted already
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if string(got) != "aaaabbbb" {
		t.Errorf("delivered %q, want the bytes as of Submit time", got)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, _, net := testFabric(t, SISCI()) // MaxSegments = 1
	nic := net.NIC(0)
	err := nic.Submit(&Tx{Dst: 1, Segs: [][]byte{{1}, {2}}})
	if !errors.Is(err, ErrTooManySegments) {
		t.Errorf("2 segments on sisci: err = %v, want ErrTooManySegments", err)
	}
	if err := nic.Submit(&Tx{Dst: 0, Segs: [][]byte{{1}}}); !errors.Is(err, errSelfSend) {
		t.Errorf("self send: err = %v, want ErrSelfSend", err)
	}
	if err := nic.Submit(&Tx{Dst: 9, Segs: [][]byte{{1}}}); err == nil {
		t.Error("send to unknown node should fail")
	}
	prof := MX10G()
	prof.MTU = 16
	w := sim.NewWorld()
	f := NewFabric(w, 2, DefaultHost())
	small, err := f.AddNetwork(prof)
	if err != nil {
		t.Fatal(err)
	}
	if err := small.NIC(0).Submit(&Tx{Dst: 1, Segs: [][]byte{make([]byte, 17)}}); !errors.Is(err, errOversized) {
		t.Errorf("oversized tx: err = %v, want ErrOversized", err)
	}
}

func TestFIFOOrderOnWire(t *testing.T) {
	// A large packet followed by a tiny one: the tiny one must not
	// overtake on the wire, whatever the injection times say.
	w, _, net := testFabric(t, MX10G())
	var order []int
	net.NIC(1).OnRecv(func(d Delivery) { order = append(order, int(d.Aux)) })
	nic := net.NIC(0)
	if err := nic.Submit(&Tx{Dst: 1, Kind: TxEager, Segs: [][]byte{make([]byte, 256<<10)}, Aux: 1}); err != nil {
		t.Fatal(err)
	}
	if err := nic.Submit(&Tx{Dst: 1, Kind: TxEager, Segs: [][]byte{{42}}, Aux: 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("arrival order %v, want [1 2]", order)
	}
}

func TestIdleCallbackFiresAfterDrain(t *testing.T) {
	w, _, net := testFabric(t, MX10G())
	net.NIC(1).OnRecv(func(Delivery) {})
	nic := net.NIC(0)
	idles := 0
	nic.OnIdle(func() {
		idles++
		if !nic.Idle() {
			t.Error("idle callback fired while NIC not idle")
		}
	})
	if !nic.Idle() {
		t.Fatal("fresh NIC should be idle")
	}
	for i := 0; i < 3; i++ {
		if err := nic.Submit(&Tx{Dst: 1, Kind: TxEager, Segs: [][]byte{make([]byte, 64)}}); err != nil {
			t.Fatal(err)
		}
	}
	if nic.Idle() {
		t.Error("NIC should be busy right after Submit")
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if idles != 1 {
		t.Errorf("idle callback fired %d times, want once (after the queue drains)", idles)
	}
}

func TestIdleRefillKeepsNICBusy(t *testing.T) {
	// The NewMadeleine pattern: refill from the idle callback.
	w, _, net := testFabric(t, QsNetII())
	deliveries := 0
	net.NIC(1).OnRecv(func(Delivery) { deliveries++ })
	nic := net.NIC(0)
	remaining := 5
	send := func() {
		remaining--
		if err := nic.Submit(&Tx{Dst: 1, Kind: TxEager, Segs: [][]byte{{1, 2, 3}}}); err != nil {
			t.Fatal(err)
		}
	}
	nic.OnIdle(func() {
		if remaining > 0 {
			send()
		}
	})
	send()
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if deliveries != 5 {
		t.Errorf("%d deliveries, want 5", deliveries)
	}
}

func TestAggregationBeatsSeparateSends(t *testing.T) {
	// The core physics behind the paper: k segments in one transaction
	// must complete sooner than k separate transactions.
	sendAll := func(aggregate bool) sim.Time {
		w, _, net := testFabric(t, MX10G())
		var last sim.Time
		want := 8
		got := 0
		net.NIC(1).OnRecv(func(Delivery) {
			got++
			last = w.Now()
		})
		nic := net.NIC(0)
		seg := make([]byte, 64)
		if aggregate {
			segs := make([][]byte, 8)
			for i := range segs {
				segs[i] = seg
			}
			if err := nic.Submit(&Tx{Dst: 1, Kind: TxEager, Segs: segs}); err != nil {
				t.Fatal(err)
			}
			want = 1
		} else {
			for i := 0; i < 8; i++ {
				if err := nic.Submit(&Tx{Dst: 1, Kind: TxEager, Segs: [][]byte{seg}}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%d deliveries, want %d", got, want)
		}
		return last
	}
	agg, sep := sendAll(true), sendAll(false)
	if agg >= sep {
		t.Errorf("aggregated 8x64B finished at %v, separate at %v: aggregation must win", agg, sep)
	}
	if sep < 2*agg {
		t.Errorf("separate sends only %.2fx slower; the per-transaction gap should dominate", float64(sep)/float64(agg))
	}
}

func TestRdmaSkipsPIOCost(t *testing.T) {
	// When the host PIO path is slower than the wire, an RDMA transaction
	// must beat eager: the DMA engine streams at wire pace while PIO is
	// throttled by the host copy.
	prof := GM2000()
	prof.PIOBandwidth = 1e8 // slower than the 245 MB/s wire
	deliverAt := func(kind TxKind) sim.Time {
		w := sim.NewWorld()
		f := NewFabric(w, 2, DefaultHost())
		net, err := f.AddNetwork(prof)
		if err != nil {
			t.Fatal(err)
		}
		var at sim.Time
		net.NIC(1).OnRecv(func(Delivery) { at = w.Now() })
		if err := net.NIC(0).Submit(&Tx{Dst: 1, Kind: kind, Segs: [][]byte{make([]byte, 1<<20)}}); err != nil {
			t.Fatal(err)
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return at
	}
	if rdma, eager := deliverAt(TxRdma), deliverAt(TxEager); rdma >= eager {
		t.Errorf("1MB rdma arrived at %v, eager at %v: rdma must be faster", rdma, eager)
	}
	// The eager sender NIC must still free earlier than the RDMA one
	// relative to its own drain: eager frees at host-copy completion.
	w := sim.NewWorld()
	f := NewFabric(w, 2, DefaultHost())
	net, err := f.AddNetwork(GM2000())
	if err != nil {
		t.Fatal(err)
	}
	net.NIC(1).OnRecv(func(Delivery) {})
	var idleAt sim.Time
	net.NIC(0).OnIdle(func() { idleAt = w.Now() })
	if err := net.NIC(0).Submit(&Tx{Dst: 1, Kind: TxEager, Segs: [][]byte{make([]byte, 1<<20)}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	pio := sim.ByteTime(1<<20, GM2000().PIOBandwidth)
	if idleAt < pio {
		t.Errorf("eager NIC idled at %v, before the %v host copy finished", idleAt, pio)
	}
}

func TestRdmaNICBusyUntilDrain(t *testing.T) {
	w, _, net := testFabric(t, MX10G())
	net.NIC(1).OnRecv(func(Delivery) {})
	nic := net.NIC(0)
	var idleAt sim.Time
	nic.OnIdle(func() { idleAt = w.Now() })
	size := 1 << 20
	if err := nic.Submit(&Tx{Dst: 1, Kind: TxRdma, Segs: [][]byte{make([]byte, size)}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	stream := sim.ByteTime(size, net.Profile().Bandwidth)
	if idleAt < stream {
		t.Errorf("NIC idled at %v, before the %v DMA stream could have drained", idleAt, stream)
	}
}

func TestTwoNetworksAreIndependentRails(t *testing.T) {
	w := sim.NewWorld()
	f := NewFabric(w, 2, DefaultHost())
	mx, err := f.AddNetwork(MX10G())
	if err != nil {
		t.Fatal(err)
	}
	qs, err := f.AddNetwork(QsNetII())
	if err != nil {
		t.Fatal(err)
	}
	size := 4 << 20

	oneRail := func() sim.Time {
		w := sim.NewWorld()
		f := NewFabric(w, 2, DefaultHost())
		net, _ := f.AddNetwork(MX10G())
		var done sim.Time
		net.NIC(1).OnRecv(func(Delivery) { done = w.Now() })
		if err := net.NIC(0).Submit(&Tx{Dst: 1, Kind: TxRdma, Segs: [][]byte{make([]byte, size)}}); err != nil {
			t.Fatal(err)
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return done
	}()

	// Split the same volume across the two rails, proportionally to their
	// bandwidths.
	var done sim.Time
	n := 0
	rx := func(Delivery) {
		n++
		if w.Now() > done {
			done = w.Now()
		}
	}
	mx.NIC(1).OnRecv(rx)
	qs.NIC(1).OnRecv(rx)
	mxShare := int(float64(size) * mx.Profile().Bandwidth / (mx.Profile().Bandwidth + qs.Profile().Bandwidth))
	if err := mx.NIC(0).Submit(&Tx{Dst: 1, Kind: TxRdma, Segs: [][]byte{make([]byte, mxShare)}}); err != nil {
		t.Fatal(err)
	}
	if err := qs.NIC(0).Submit(&Tx{Dst: 1, Kind: TxRdma, Segs: [][]byte{make([]byte, size-mxShare)}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("%d deliveries, want 2", n)
	}
	if done >= oneRail {
		t.Errorf("two rails finished at %v, one rail at %v: striping must win", done, oneRail)
	}
}

func TestNICStats(t *testing.T) {
	w, _, net := testFabric(t, MX10G())
	net.NIC(1).OnRecv(func(Delivery) {})
	nic := net.NIC(0)
	for i := 0; i < 4; i++ {
		if err := nic.Submit(&Tx{Dst: 1, Kind: TxEager, Segs: [][]byte{make([]byte, 100), make([]byte, 28)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	st := nic.Stats()
	if st.TxPackets != 4 || st.TxBytes != 4*128 || st.TxSegs != 8 {
		t.Errorf("sender stats %+v, want 4 packets / 512 bytes / 8 segments", st)
	}
	if st.MaxQueue < 2 {
		t.Errorf("MaxQueue = %d, want >= 2 (all submitted at once)", st.MaxQueue)
	}
	rst := net.NIC(1).Stats()
	if rst.RxPackets != 4 || rst.RxBytes != 4*128 {
		t.Errorf("receiver stats %+v, want 4 packets / 512 bytes", rst)
	}
}

func TestWireScaleDegradesBandwidth(t *testing.T) {
	arrival := func(scale float64) sim.Time {
		w, _, net := testFabric(t, MX10G())
		if scale != 1 {
			net.SetWireScale(scale)
		}
		if net.scale() != scale {
			t.Fatalf("scale() = %v, want %v", net.scale(), scale)
		}
		var at sim.Time
		net.NIC(1).OnRecv(func(Delivery) { at = w.Now() })
		if err := net.NIC(0).Submit(&Tx{Dst: 1, Kind: TxRdma, Segs: [][]byte{make([]byte, 1<<20)}}); err != nil {
			t.Fatal(err)
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return at
	}
	full, half := arrival(1.0), arrival(0.5)
	ratio := float64(half) / float64(full)
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("halving the wire scale changed a 1MB stream by %.2fx, want ~2x", ratio)
	}
	defer func() {
		if recover() == nil {
			t.Error("SetWireScale(0) should panic")
		}
	}()
	w := sim.NewWorld()
	f := NewFabric(w, 2, DefaultHost())
	net, _ := f.AddNetwork(MX10G())
	net.SetWireScale(0)
}

func TestCopyCost(t *testing.T) {
	w := sim.NewWorld()
	f := NewFabric(w, 1, Host{MemcpyBandwidth: 1e9})
	if got := f.Node(0).CopyCost(1000); got != 1*sim.Microsecond {
		t.Errorf("CopyCost(1000) = %v, want 1µs at 1 GB/s", got)
	}
}

func TestDeliveryLatencyScalesWithSize(t *testing.T) {
	// Property: arrival time is non-decreasing in message size.
	arrival := func(size int) sim.Time {
		w, _, net := testFabric(t, TCPGbE())
		var at sim.Time
		net.NIC(1).OnRecv(func(Delivery) { at = w.Now() })
		if err := net.NIC(0).Submit(&Tx{Dst: 1, Kind: TxEager, Segs: [][]byte{make([]byte, size)}}); err != nil {
			t.Fatal(err)
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return at
	}
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return arrival(x) <= arrival(y)
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestFabricAccessors(t *testing.T) {
	w := sim.NewWorld()
	f := NewFabric(w, 3, DefaultHost())
	if f.Nodes() != 3 {
		t.Errorf("Nodes() = %d, want 3", f.Nodes())
	}
	if f.World() != w {
		t.Error("World() does not round-trip")
	}
	net, err := f.AddNetwork(MX10G())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Networks()) != 1 || f.Networks()[0] != net {
		t.Error("Networks() does not report the added network")
	}
	if net.NIC(2).Node().ID != 2 {
		t.Error("NIC/node wiring broken")
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range Node() should panic")
		}
	}()
	f.Node(5)
}
