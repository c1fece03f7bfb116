package drivers

import (
	"errors"
	"testing"

	"nmad/internal/sim"
	"nmad/internal/simnet"
)

func pair(t *testing.T, prof simnet.Profile) (*sim.World, Driver, Driver) {
	t.Helper()
	w := sim.NewWorld()
	f := simnet.NewFabric(w, 2, simnet.DefaultHost())
	net, err := f.AddNetwork(prof)
	if err != nil {
		t.Fatal(err)
	}
	d0, err := New(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := New(net, 1)
	if err != nil {
		t.Fatal(err)
	}
	return w, d0, d1
}

func TestRegistryCoversAllProfiles(t *testing.T) {
	w := sim.NewWorld()
	f := simnet.NewFabric(w, 2, simnet.DefaultHost())
	want := map[string]string{
		"mx10g": "mx", "qsnet2": "elan", "gm2000": "gm", "sisci": "sisci", "tcp": "tcp",
	}
	for _, prof := range simnet.Profiles() {
		net, err := f.AddNetwork(prof)
		if err != nil {
			t.Fatal(err)
		}
		d, err := New(net, 0)
		if err != nil {
			t.Fatalf("no driver for %s: %v", prof.Name, err)
		}
		if d.Name() != want[prof.Name] {
			t.Errorf("driver for %s named %q, want %q", prof.Name, d.Name(), want[prof.Name])
		}
		caps := d.Caps()
		if caps.RdvThreshold != prof.RdvThreshold || caps.RDMA != prof.RDMA {
			t.Errorf("%s caps %+v do not reflect the profile", d.Name(), caps)
		}
	}
}

func TestRegistryUnknownNetwork(t *testing.T) {
	w := sim.NewWorld()
	f := simnet.NewFabric(w, 2, simnet.DefaultHost())
	prof := simnet.MX10G()
	prof.Name = "mystery"
	net, err := f.AddNetwork(prof)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(net, 0); err == nil {
		t.Error("unknown network should not resolve to a driver")
	}
}

func TestSendRequiresOpen(t *testing.T) {
	_, d0, _ := pair(t, simnet.MX10G())
	err := d0.Send(1, simnet.TxEager, [][]byte{{1}}, 0, nil)
	if !errors.Is(err, errNotOpen) {
		t.Errorf("Send before Open: err = %v, want errNotOpen", err)
	}
}

func TestOpenSendReceiveClose(t *testing.T) {
	w, d0, d1 := pair(t, simnet.MX10G())
	var got []byte
	if err := d1.Open(func(d simnet.Delivery) { got = d.Data }, nil); err != nil {
		t.Fatal(err)
	}
	if err := d0.Open(func(simnet.Delivery) {}, nil); err != nil {
		t.Fatal(err)
	}
	if err := d0.Open(func(simnet.Delivery) {}, nil); err == nil {
		t.Error("double Open should fail")
	}
	if !d0.Poll() {
		t.Error("Poll() should report an idle NIC after Open")
	}
	if err := d0.Send(1, simnet.TxEager, [][]byte{[]byte("ping")}, 0, nil); err != nil {
		t.Fatal(err)
	}
	if d0.Poll() {
		t.Error("Poll() should report busy right after Send")
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if string(got) != "ping" {
		t.Errorf("received %q, want %q", got, "ping")
	}
	if err := d0.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d0.Close(); !errors.Is(err, errNotOpen) {
		t.Errorf("double Close: err = %v, want errNotOpen", err)
	}
	if d0.Stats().TxPackets != 1 {
		t.Errorf("TxPackets = %d, want 1", d0.Stats().TxPackets)
	}
}

func TestGMBouncesLongGatherLists(t *testing.T) {
	// GM's NIC takes 2 segments; the driver must still accept more by
	// flattening, and the flattened packet must arrive intact and *later*
	// than a native 2-segment send (the bounce memcpy costs time).
	deliver := func(nsegs int) (string, sim.Time) {
		w, d0, d1 := pair(t, simnet.GM2000())
		var got []byte
		var at sim.Time
		if err := d1.Open(func(d simnet.Delivery) { got = d.Data; at = w.Now() }, nil); err != nil {
			t.Fatal(err)
		}
		if err := d0.Open(func(simnet.Delivery) {}, nil); err != nil {
			t.Fatal(err)
		}
		segs := make([][]byte, nsegs)
		per := 4096 / nsegs
		for i := range segs {
			segs[i] = make([]byte, per)
			for j := range segs[i] {
				segs[i][j] = byte(i)
			}
		}
		if err := d0.Send(1, simnet.TxEager, segs, 0, nil); err != nil {
			t.Fatal(err)
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return string(got), at
	}
	native, nativeAt := deliver(2)
	bounced, bouncedAt := deliver(8)
	if len(native) != 4096 || len(bounced) != 4096 {
		t.Fatalf("payload sizes %d / %d, want 4096", len(native), len(bounced))
	}
	if bouncedAt <= nativeAt {
		t.Errorf("bounced 8-segment send arrived at %v, native at %v: the bounce copy must cost time", bouncedAt, nativeAt)
	}
	for i := 0; i < 8; i++ {
		if bounced[i*512] != byte(i) {
			t.Fatalf("bounced payload corrupted at segment %d", i)
		}
	}
}

func TestGMRejectsBeyondSoftLimit(t *testing.T) {
	_, d0, _ := pair(t, simnet.GM2000())
	if err := d0.Open(func(simnet.Delivery) {}, nil); err != nil {
		t.Fatal(err)
	}
	segs := make([][]byte, d0.Caps().MaxSegments+1)
	for i := range segs {
		segs[i] = []byte{1}
	}
	if err := d0.Send(1, simnet.TxEager, segs, 0, nil); !errors.Is(err, simnet.ErrTooManySegments) {
		t.Errorf("beyond soft limit: err = %v, want ErrTooManySegments", err)
	}
}

// TestSendFrameTimedLikeItsGatherList: a transaction the caller already
// flattened is charged by the shape it declares, not by the one buffer it
// has become — PerSegment natively, the bounce memcpy beyond the NIC's
// gather capacity, a refusal beyond the soft limit — so it arrives, and
// frees the NIC, at the instants the gather list itself would have.
func TestSendFrameTimedLikeItsGatherList(t *testing.T) {
	deliver := func(nsegs int, framed bool) (arrived, sent sim.Time) {
		w, d0, d1 := pair(t, simnet.GM2000())
		if err := d1.Open(func(d simnet.Delivery) {
			arrived = w.Now()
			if len(d.Data) != 4096 || d.Data[4095] != byte(nsegs-1) {
				t.Errorf("%d segments, framed %v: payload damaged", nsegs, framed)
			}
		}, nil); err != nil {
			t.Fatal(err)
		}
		if err := d0.Open(func(simnet.Delivery) {}, nil); err != nil {
			t.Fatal(err)
		}
		segs := make([][]byte, nsegs)
		for i := range segs {
			segs[i] = make([]byte, 4096/nsegs)
			for j := range segs[i] {
				segs[i][j] = byte(i)
			}
		}
		onSent := func() { sent = w.Now() }
		var err error
		if framed {
			var list *simnet.FrameList // frames no list takes back
			err = d0.SendFrame(1, simnet.TxEager, list.New(segs), nsegs, 0, onSent)
		} else {
			err = d0.Send(1, simnet.TxEager, segs, 0, onSent)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return arrived, sent
	}
	for _, nsegs := range []int{1, 2, 8} { // contiguous, native gather, bounced
		a0, s0 := deliver(nsegs, false)
		a1, s1 := deliver(nsegs, true)
		if a0 != a1 || s0 != s1 {
			t.Errorf("%d segments: gather list arrives %v / sent %v, its frame %v / %v", nsegs, a0, s0, a1, s1)
		}
	}
	_, d0, _ := pair(t, simnet.GM2000())
	if err := d0.Open(func(simnet.Delivery) {}, nil); err != nil {
		t.Fatal(err)
	}
	var list *simnet.FrameList
	err := d0.SendFrame(1, simnet.TxEager, list.New([][]byte{{1}}), d0.Caps().MaxSegments+1, 0, nil)
	if !errors.Is(err, simnet.ErrTooManySegments) {
		t.Errorf("frame shaped beyond the soft limit: err = %v, want ErrTooManySegments", err)
	}
}

func TestSISCIBouncesEverythingNonContiguous(t *testing.T) {
	w, d0, d1 := pair(t, simnet.SISCI())
	var got []byte
	if err := d1.Open(func(d simnet.Delivery) { got = d.Data }, nil); err != nil {
		t.Fatal(err)
	}
	if err := d0.Open(func(simnet.Delivery) {}, nil); err != nil {
		t.Fatal(err)
	}
	if err := d0.Send(1, simnet.TxEager, [][]byte{[]byte("ab"), []byte("cd")}, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if string(got) != "abcd" {
		t.Errorf("received %q, want %q", got, "abcd")
	}
}

func TestIdleHandlerDrivesRefill(t *testing.T) {
	w, d0, d1 := pair(t, simnet.QsNetII())
	n := 0
	if err := d1.Open(func(simnet.Delivery) { n++ }, nil); err != nil {
		t.Fatal(err)
	}
	left := 4
	var idle func()
	idle = func() {
		if left == 0 {
			return
		}
		left--
		if err := d0.Send(1, simnet.TxEager, [][]byte{{9}}, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := d0.Open(func(simnet.Delivery) {}, idle); err != nil {
		t.Fatal(err)
	}
	idle() // prime the pump
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("%d deliveries, want 4", n)
	}
}

func TestOnSentFiresPerSend(t *testing.T) {
	w, d0, d1 := pair(t, simnet.TCPGbE())
	if err := d1.Open(func(simnet.Delivery) {}, nil); err != nil {
		t.Fatal(err)
	}
	if err := d0.Open(func(simnet.Delivery) {}, nil); err != nil {
		t.Fatal(err)
	}
	sent := 0
	for i := 0; i < 3; i++ {
		if err := d0.Send(1, simnet.TxEager, [][]byte{make([]byte, 100)}, 0, func() { sent++ }); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if sent != 3 {
		t.Errorf("OnSent fired %d times, want 3", sent)
	}
}

// landing is a Placer with one landing buffer, for immediate data 1.
type landing []byte

func (l landing) Place(_ simnet.NodeID, aux uint64, at int, b []byte) {
	if aux == 1 {
		copy(l[at:], b)
	}
}

// TestRdmaLandsThroughOnPlace: RDMA bytes reach the buffer bound with
// OnPlace — through SISCI's software gather too, which bounces a
// two-segment list into one frame — and the delivery carries the length.
// Once the port is closed nothing lands any more.
func TestRdmaLandsThroughOnPlace(t *testing.T) {
	w, d0, d1 := pair(t, simnet.SISCI())
	buf := make(landing, 4)
	d1.OnPlace(buf)
	var lens []int
	if err := d1.Open(func(d simnet.Delivery) { lens = append(lens, d.Len) }, nil); err != nil {
		t.Fatal(err)
	}
	if err := d0.Open(func(simnet.Delivery) {}, nil); err != nil {
		t.Fatal(err)
	}
	if err := d0.Send(1, simnet.TxRdma, [][]byte{[]byte("ab"), []byte("cd")}, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "abcd" || len(lens) != 1 || lens[0] != 4 {
		t.Fatalf("landed %q with deliveries of %v bytes, want \"abcd\" and [4]", buf, lens)
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d0.Send(1, simnet.TxRdma, [][]byte{[]byte("wxyz")}, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "abcd" {
		t.Errorf("a closed port still placed: buffer %q", buf)
	}
}
