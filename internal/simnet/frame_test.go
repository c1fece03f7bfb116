package simnet

import (
	"bytes"
	"runtime"
	"testing"

	"nmad/internal/sim"
)

// listed counts the frames on the fabric's free list, failing on a chain
// longer than any test builds — what filing one frame twice would make.
func listed(t *testing.T, f *Fabric) int {
	t.Helper()
	n := 0
	for _, fr := range f.frames.free {
		for ; fr != nil; fr = fr.next {
			if fr.refs != 0 {
				t.Fatalf("a frame with %d references is on the free list", fr.refs)
			}
			if n++; n > 1000 {
				t.Fatal("free list does not end: a frame was filed twice")
			}
		}
	}
	return n
}

// TestFrameReturnsOnceAfterLastDelivery: the transaction's frame is off
// the free list while any delivery of it is still to come and goes back
// exactly once after the last — none when the fabric drops the packet,
// one normally, two when the fabric duplicates it.
func TestFrameReturnsOnceAfterLastDelivery(t *testing.T) {
	for _, tc := range []struct {
		name       string
		faults     RailFaults
		deliveries int
	}{
		{"drop", RailFaults{DropProb: 1}, 0},
		{"normal", RailFaults{}, 1},
		{"duplicate", RailFaults{DupProb: 1}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, f, net := testFabric(t, MX10G())
			if err := f.SetFaults(FaultProfile{Seed: 1, Rails: []RailFaults{tc.faults}}); err != nil {
				t.Fatal(err)
			}
			var sent *Frame // the transaction's frame, as the first delivery shows it
			got := 0
			net.NIC(1).OnRecv(func(d Delivery) {
				got++
				if sent == nil {
					sent = d.Frame
				}
				if d.Frame != sent || string(d.Data) != "payload" {
					t.Errorf("delivery %d carries %q in frame %p, want the submitted frame %p", got, d.Data, d.Frame, sent)
				}
				if n := listed(t, f); n != 0 {
					t.Errorf("delivery %d of %d: %d frames on the free list while the handler reads one", got, tc.deliveries, n)
				}
			})
			tx := Tx{Dst: 1, Kind: TxEager, Segs: [][]byte{[]byte("pay"), []byte("load")}}
			if err := net.NIC(0).Submit(&tx); err != nil {
				t.Fatal(err)
			}
			if tx.Frame != nil || tx.Segs == nil {
				t.Error("Submit wrote to the caller's Tx")
			}
			if err := w.Run(); err != nil {
				t.Fatal(err)
			}
			if got != tc.deliveries {
				t.Fatalf("%d deliveries, want %d", got, tc.deliveries)
			}
			if n := listed(t, f); n != 1 {
				t.Fatalf("%d frames on the free list after the last delivery, want 1", n)
			}
			// The next flatten of the size draws that very frame.
			next := f.Frames().New([][]byte{[]byte("payload")})
			if n := listed(t, f); n != 0 || (sent != nil && next != sent) {
				t.Errorf("next frame is %p with %d still listed, want the recycled %p", next, n, sent)
			}
		})
	}
}

// TestRetainedFrameSurvivesLaterTraffic: a handler that parks a delivery
// retains its frame; equal-sized traffic afterwards must be given other
// frames, and the parked bytes stay what they were until the release.
func TestRetainedFrameSurvivesLaterTraffic(t *testing.T) {
	w, f, net := testFabric(t, MX10G())
	var parked Delivery
	net.NIC(1).OnRecv(func(d Delivery) {
		if parked.Frame == nil {
			d.Frame.Retain()
			parked = d
		}
	})
	msg := func(fill byte) []byte { return bytes.Repeat([]byte{fill}, 512) }
	for i := 0; i < 20; i++ {
		if err := net.NIC(0).Submit(&Tx{Dst: 1, Kind: TxEager, Segs: [][]byte{msg(byte(i))}}); err != nil {
			t.Fatal(err)
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(parked.Data, msg(0)) {
		t.Fatal("the parked delivery's bytes changed under later traffic")
	}
	before := listed(t, f)
	parked.Frame.Release()
	if after := listed(t, f); after != before+1 {
		t.Errorf("free list went %d -> %d on the last release, want one more", before, after)
	}
}

// TestFrameDoubleReleaseCaught: releasing a frame nobody holds is a
// bookkeeping bug that would hand one buffer to two transactions.
func TestFrameDoubleReleaseCaught(t *testing.T) {
	_, f, _ := testFabric(t, MX10G())
	fr := f.Frames().New([][]byte{{1, 2, 3}})
	fr.Retain()
	fr.Release()
	fr.Release()
	for what, op := range map[string]func(){"Release": fr.Release, "Retain": fr.Retain} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after the last release went unnoticed", what)
				}
			}()
			op()
		}()
	}
	if n := listed(t, f); n != 1 {
		t.Errorf("%d frames listed, want the released frame once", n)
	}
}

// TestFrameListSizing: a miss allocates exactly what was asked for, a
// released frame serves any later request of its magnitude it is large
// enough for, and never one it is too small for.
func TestFrameListSizing(t *testing.T) {
	var l FrameList
	seg := func(n int) [][]byte { return [][]byte{make([]byte, n)} }
	a := l.New(seg(2_400_000))
	if c := cap(a.Bytes()); c != 2_400_000 {
		t.Errorf("cold frame of 2 400 000 bytes has capacity %d", c)
	}
	a.Release()
	if b := l.New(seg(2_400_000)); b != a {
		t.Error("an equal-sized request missed the released frame")
	}
	a.Release()
	if b := l.New(seg(2_100_000)); b != a || len(b.Bytes()) != 2_100_000 {
		t.Error("a smaller request of the same magnitude missed the released frame")
	}
	a.Release()
	if b := l.New(seg(3_000_000)); b == a || cap(b.Bytes()) != 3_000_000 {
		t.Error("a larger request was served by a frame too small for it")
	}
}

// TestFrameListLargerClass: a size whose own class holds no fit takes a
// frame of the smallest non-empty larger class, a fit in its own class
// comes first, and a reused frame reads back at the length asked for, not
// its capacity. The world counts each frame made and reused.
func TestFrameListLargerClass(t *testing.T) {
	w := sim.NewWorld()
	var wk sim.Work
	w.CountWork(&wk)
	l := FrameList{world: w}
	seg := func(n int) [][]byte { return [][]byte{make([]byte, n)} }
	small, mid, big := l.New(seg(24)), l.New(seg(1_048)), l.New(seg(9_504))
	small.Release()
	mid.Release()
	big.Release()

	if f := l.New(seg(600)); f != mid || len(f.Bytes()) != 600 {
		t.Errorf("a 600-byte request took %p of length %d, want the 1 048-byte frame %p (the smallest larger class) at length 600",
			f, len(f.Bytes()), mid)
	}
	if f := l.New(seg(20)); f != small || len(f.Bytes()) != 20 {
		t.Errorf("a 20-byte request took %p of length %d, want the 24-byte frame %p of its own class at length 20",
			f, len(f.Bytes()), small)
	}
	if f := l.New(seg(9_000)); f != big || len(f.Bytes()) != 9_000 {
		t.Errorf("a 9 000-byte request took %p of length %d, want the 9 504-byte frame %p of its own class",
			f, len(f.Bytes()), big)
	}
	if f := l.New(seg(100)); f == small || f == mid || f == big || cap(f.Bytes()) != 100 {
		t.Error("a request with every frame out was not made fresh at its size")
	}
	if made, reused := wk.Get("simnet.frames_made"), wk.Get("simnet.frames_reused"); made != 4 || reused != 3 {
		t.Errorf("counted %d frames made and %d reused, want 4 and 3", made, reused)
	}
	if copied := wk.Get("simnet.bytes_copied"); copied != 24+1_048+9_504+600+20+9_000+100 {
		t.Errorf("counted %d bytes copied into frames", copied)
	}
}

// TestSteadyStateSubmitAllocatesNoPayload: once the free lists are warm a
// submit -> deliver round allocates no buffer of the payload's size, and
// no object at all.
func TestSteadyStateSubmitAllocatesNoPayload(t *testing.T) {
	w, _, net := testFabric(t, MX10G())
	net.NIC(1).OnRecv(func(Delivery) {})
	const size = 16 << 10
	segs := [][]byte{make([]byte, size/2), make([]byte, size/2)}
	round := func() {
		if err := net.NIC(0).Submit(&Tx{Dst: 1, Kind: TxEager, Segs: segs}); err != nil {
			t.Fatal(err)
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
	}
	round() // the cold miss
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	allocs := testing.AllocsPerRun(100, round) // one warm-up call, then 100
	runtime.ReadMemStats(&m1)
	if perRound := float64(m1.TotalAlloc-m0.TotalAlloc) / 101; perRound > size/8 {
		t.Errorf("a warm round allocates %.0f bytes for a %d-byte payload", perRound, size)
	}
	if allocs != 0 {
		t.Errorf("a warm round makes %.0f allocations, want none: the Tx is the caller's and the flight is recycled", allocs)
	}
}
