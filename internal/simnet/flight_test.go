package simnet

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"

	"nmad/internal/sim"
)

// idleFlights counts the transaction records on the fabric's free list,
// failing on one that still holds anything of its last transaction.
func idleFlights(t *testing.T, f *Fabric) int {
	t.Helper()
	n := 0
	for fl := f.flights; fl != nil; fl = fl.next {
		if fl.pending != 0 || fl.nic != nil || fl.frame != nil || fl.segs != nil || fl.onSent != nil {
			t.Fatalf("a listed flight still holds its transaction: %+v", *fl)
		}
		if n++; n > 10000 {
			t.Fatal("flight list does not end: a record was filed twice")
		}
	}
	return n
}

// placeLog is a Placer that keeps what it is handed: the bytes placed per
// immediate-data value, in call order, and the sources they came from.
type placeLog struct {
	bytes map[uint64][]byte
	src   map[uint64]NodeID
}

func newPlaceLog() *placeLog {
	return &placeLog{bytes: map[uint64][]byte{}, src: map[uint64]NodeID{}}
}

func (l *placeLog) Place(src NodeID, aux uint64, at int, b []byte) {
	if at != len(l.bytes[aux]) {
		panic("placeLog: segments placed out of order")
	}
	l.bytes[aux] = append(l.bytes[aux], b...)
	l.src[aux] = src
}

// TestRecycledFlightKeepsItsOwnTransaction: records are reused as soon as
// the last event of their transaction has fired, so under duplication,
// reorder jitter and loss every delivery — a duplicate that fires long
// after the NIC moved on included — must still carry the source, kind,
// immediate data and size of the transaction it belongs to, and its bytes:
// an eager delivery in Data, an RDMA one placed once before it arrives.
func TestRecycledFlightKeepsItsOwnTransaction(t *testing.T) {
	w := sim.NewWorld()
	f := NewFabric(w, 3, DefaultHost())
	net, err := f.AddNetwork(MX10G())
	if err != nil {
		t.Fatal(err)
	}
	// Jitter of up to 100 us against transactions of well under 1 us: a
	// delayed delivery outlives hundreds of later transactions.
	fp := FaultProfile{Seed: 11, Rails: []RailFaults{{
		DropProb: 0.1, DupProb: 0.3, ReorderProb: 0.5, ReorderJitter: 100 * sim.Microsecond,
	}}}
	if err := f.SetFaults(fp); err != nil {
		t.Fatal(err)
	}
	const n = 400
	kindOf := func(i int) TxKind { return TxKind(i % 2) }
	payload := func(src NodeID, i int) []byte {
		return bytes.Repeat([]byte{byte(i) ^ byte(src)<<6}, 16+i%48)
	}
	seen := map[uint64]int{}
	lateDups := 0
	placed := newPlaceLog()
	net.NIC(1).OnPlace(placed)
	net.NIC(1).OnRecv(func(d Delivery) {
		src, i := NodeID(d.Aux>>32), int(uint32(d.Aux))
		want := payload(src, i)
		got := d.Data
		if d.Kind == TxRdma {
			got = placed.bytes[d.Aux]
			if d.Data != nil || d.Frame != nil || placed.src[d.Aux] != src {
				t.Errorf("RDMA delivery (node %d, tx %d) carries %d bytes of data, or was placed from node %d", src, i, len(d.Data), placed.src[d.Aux])
			}
		}
		if d.Src != src || d.Kind != kindOf(i) || d.Len != len(want) || !bytes.Equal(got, want) {
			t.Errorf("delivery tagged (node %d, tx %d) carries src %d, kind %v, length %d, bytes %x",
				src, i, d.Src, d.Kind, d.Len, got)
		}
		seen[d.Aux]++
		if seen[d.Aux] == 2 && net.NIC(src).Stats().TxPackets-(i+1) >= 8 {
			lateDups++
		}
	})
	// Each sender submits its next transaction from the completion of the
	// previous one: the record that just came back is the one drawn.
	for _, src := range []NodeID{0, 2} {
		nic, i := net.NIC(src), 0
		var next func()
		next = func() {
			if i == n {
				return
			}
			tx := Tx{Dst: 1, Kind: kindOf(i), Segs: [][]byte{payload(src, i)}, Aux: uint64(src)<<32 | uint64(i), OnSent: next}
			i++
			if err := nic.Submit(&tx); err != nil {
				t.Fatal(err)
			}
		}
		next()
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	st := net.FaultStats()
	if st.Dropped == 0 || st.Duplicated == 0 || st.Reordered == 0 {
		t.Fatalf("expected every fault class: %+v", st)
	}
	got := 0
	for _, c := range seen {
		got += c
	}
	if want := 2*n - st.Dropped + st.Duplicated; got != want {
		t.Errorf("%d deliveries, injector stats imply %d", got, want)
	}
	for aux := range placed.bytes {
		if seen[aux] == 0 {
			t.Errorf("tx %d of node %d was placed but never delivered", uint32(aux), aux>>32)
		}
	}
	if lateDups == 0 {
		t.Error("no duplicate fired after its NIC had started 8 later transactions: the test lost its point")
	}
	// Every record came back, and far fewer were made than transactions
	// were sent: they were reused while the run was still going.
	idle := idleFlights(t, f)
	t.Logf("%d flights served %d transactions, %d late duplicates", idle, 2*n, lateDups)
	if idle == 0 || idle > n/2 {
		t.Errorf("%d flights on the free list after %d transactions", idle, 2*n)
	}
}

// TestFlightSizeClass: a fabric keeps as many flights as it ever had
// transactions in progress at once, and every network one NIC per node, so
// each fills its malloc size class to the byte: a flight 96 bytes, a NIC
// 128. One more word moves every flight to the 112-byte class, every NIC
// to the 144-byte one.
func TestFlightSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(flight{}); got > 96 {
		t.Errorf("flight is %d bytes, over the 96-byte size class", got)
	}
	if got := unsafe.Sizeof(NIC{}); got > 128 {
		t.Errorf("NIC is %d bytes, over the 128-byte size class", got)
	}
}

// TestDroppedTransactionReturnsItsFlight: the fabric losing the packet
// schedules no delivery, so the sender-side completion is the record's
// last event and hands it straight to the next transaction.
func TestDroppedTransactionReturnsItsFlight(t *testing.T) {
	w, f, net := testFabric(t, MX10G())
	if err := f.SetFaults(FaultProfile{Seed: 1, Rails: []RailFaults{{DropProb: 1}}}); err != nil {
		t.Fatal(err)
	}
	net.NIC(1).OnRecv(func(Delivery) { t.Error("a dropped packet was delivered") })
	for i := 0; i < 10; i++ {
		if err := net.NIC(0).Submit(&Tx{Dst: 1, Kind: TxEager, Segs: [][]byte{{1, 2, 3}}}); err != nil {
			t.Fatal(err)
		}
		if n := idleFlights(t, f); n != 0 {
			t.Fatalf("transaction %d in progress with %d flights listed, want the one record in use", i, n)
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		if n := idleFlights(t, f); n != 1 {
			t.Fatalf("%d flights listed after dropped transaction %d, want 1", n, i)
		}
	}
}

// TestFlightSlabsFileTheirSpares: twelve transactions queued at once take
// twelve flights, carved in slabs of 1, 2, 4 and 5 records (makeFlight),
// and once the run is over every record made is back on the list, the
// spares no transaction took included.
func TestFlightSlabsFileTheirSpares(t *testing.T) {
	w, f, net := testFabric(t, MX10G())
	wk := new(sim.Work)
	w.CountWork(wk)
	net.NIC(1).OnRecv(func(Delivery) {})
	for range 12 {
		if err := net.NIC(0).Submit(&Tx{Dst: 1, Kind: TxEager, Segs: [][]byte{{1}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	made := wk.Get("simnet.flights_made")
	if made != 1+2+4+5 {
		t.Errorf("%d flights made for 12 transactions in progress at once, want slabs of 1, 2, 4 and 5", made)
	}
	if idle := idleFlights(t, f); uint64(idle) != made {
		t.Errorf("%d flights made, %d on the free list once the run is over", made, idle)
	}
}

// TestFlightDoubleReleaseCaught: retiring an event of a record that has
// none left would file it twice and hand one record to two transactions.
func TestFlightDoubleReleaseCaught(t *testing.T) {
	w, f, net := testFabric(t, MX10G())
	net.NIC(1).OnRecv(func(Delivery) {})
	if err := net.NIC(0).Submit(&Tx{Dst: 1, Kind: TxEager, Segs: [][]byte{{1}}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	fl := f.flights
	if fl == nil || idleFlights(t, f) != 1 {
		t.Fatal("the finished transaction's flight is not on the free list")
	}
	defer func() {
		if recover() == nil {
			t.Error("a second release of a listed flight went unnoticed")
		}
		if idleFlights(t, f) != 1 {
			t.Error("the caught release still changed the free list")
		}
	}()
	fl.done()
}

// landing is a Placer over landing buffers keyed by immediate data: it
// copies what names one of them, drops what names none, and counts the
// calls it gets.
type landing struct {
	bufs  map[uint64][]byte
	calls int
}

func (l *landing) Place(_ NodeID, aux uint64, at int, b []byte) {
	l.calls++
	if buf, ok := l.bufs[aux]; ok && at < len(buf) {
		copy(buf[at:], b)
	}
}

// TestRdmaReadsTheSenderWhenItsDMAReadEnds: an RDMA transaction keeps the
// caller's gather list, not a snapshot of it. The bytes it lands are the
// buffer's as the DMA read ends, written into the receiver's memory before
// OnSent runs — so a sender that reuses its buffer from OnSent on still
// lands what it sent — and the delivery that follows carries the length
// alone. No frame is drawn for it.
func TestRdmaReadsTheSenderWhenItsDMAReadEnds(t *testing.T) {
	w, f, net := testFabric(t, MX10G())
	target := make([]byte, 8)
	net.NIC(1).OnPlace(&landing{bufs: map[uint64][]byte{7: target}})
	var got *Delivery
	net.NIC(1).OnRecv(func(d Delivery) {
		got = &d
		if string(target) != "AAAAbbbb" {
			t.Errorf("at delivery the target holds %q", target)
		}
	})
	a, b := []byte("aaaa"), []byte("bbbb")
	tx := Tx{Dst: 1, Kind: TxRdma, Segs: [][]byte{a, b}, Aux: 7, OnSent: func() {
		if string(target) != "AAAAbbbb" {
			t.Errorf("at OnSent the target holds %q, want the bytes as the DMA read ended", target)
		}
		copy(a, "XXXX") // the caller's again
		copy(b, "XXXX")
	}}
	if err := net.NIC(0).Submit(&tx); err != nil {
		t.Fatal(err)
	}
	copy(a, "AAAA") // before the NIC is done: what it reads
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Len != 8 || got.Data != nil || got.Frame != nil {
		t.Fatalf("delivery %+v, want the length alone", got)
	}
	if string(target) != "AAAAbbbb" {
		t.Errorf("target holds %q after the run", target)
	}
	if rx := net.NIC(1).Stats(); rx.RxPackets != 1 || rx.RxBytes != 8 {
		t.Errorf("receiver stats %+v, want 1 packet of 8 bytes", rx)
	}
	if n := listed(t, f); n != 0 {
		t.Errorf("%d frames on the free list: an RDMA gather list drew one", n)
	}
}

// TestRdmaPlacesOnceWhateverTheFabricDoes: a dropped RDMA transaction
// writes nothing into the receiver's memory; a delivered one writes its
// bytes once, a duplicated one once too though it arrives twice. That
// holds whether the caller sent a gather list or a frame, and the frame
// goes back to the free list exactly once.
func TestRdmaPlacesOnceWhateverTheFabricDoes(t *testing.T) {
	for _, tc := range []struct {
		name       string
		faults     RailFaults
		deliveries int
	}{
		{"drop", RailFaults{DropProb: 1}, 0},
		{"normal", RailFaults{}, 1},
		{"duplicate", RailFaults{DupProb: 1}, 2},
	} {
		for _, framed := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/framed=%v", tc.name, framed), func(t *testing.T) {
				w, f, net := testFabric(t, MX10G())
				if err := f.SetFaults(FaultProfile{Seed: 1, Rails: []RailFaults{tc.faults}}); err != nil {
					t.Fatal(err)
				}
				target := bytes.Repeat([]byte{0xEE}, 7)
				l := &landing{bufs: map[uint64][]byte{5: target}}
				net.NIC(1).OnPlace(l)
				got := 0
				net.NIC(1).OnRecv(func(d Delivery) {
					got++
					if d.Len != 7 || d.Data != nil || d.Frame != nil {
						t.Errorf("delivery %d: length %d, %d bytes of data, frame %p", got, d.Len, len(d.Data), d.Frame)
					}
				})
				tx := Tx{Dst: 1, Kind: TxRdma, Segs: [][]byte{[]byte("pay"), []byte("load")}, Aux: 5}
				if framed {
					tx.Frame, tx.NSegs, tx.Segs = f.Frames().New(tx.Segs), len(tx.Segs), nil
				}
				if err := net.NIC(0).Submit(&tx); err != nil {
					t.Fatal(err)
				}
				if err := w.Run(); err != nil {
					t.Fatal(err)
				}
				if got != tc.deliveries {
					t.Fatalf("%d deliveries, want %d", got, tc.deliveries)
				}
				want, calls := "payload", 2 // one call per segment
				if framed {
					calls = 1 // one contiguous source
				}
				if tc.deliveries == 0 {
					want, calls = string(bytes.Repeat([]byte{0xEE}, 7)), 0
				}
				if string(target) != want || l.calls != calls {
					t.Errorf("target %q after %d placements, want %q after %d", target, l.calls, want, calls)
				}
				wantFrames := 0 // a gather list draws none
				if framed {
					wantFrames = 1
				}
				if n := listed(t, f); n != wantFrames {
					t.Errorf("%d frames on the free list, want %d", n, wantFrames)
				}
			})
		}
	}
}

// TestRdmaWithoutLandingWritesNothing: a transaction whose immediate data
// names no buffer the receiver holds is still delivered, with its length,
// and leaves every registered buffer as it was; so is one arriving at a
// NIC that has no Placer at all.
func TestRdmaWithoutLandingWritesNothing(t *testing.T) {
	w, _, net := testFabric(t, MX10G())
	held := bytes.Repeat([]byte{0xEE}, 16)
	l := &landing{bufs: map[uint64][]byte{1: held}}
	net.NIC(1).OnPlace(l)
	var lens []int
	for _, id := range []NodeID{0, 1} {
		net.NIC(id).OnRecv(func(d Delivery) { lens = append(lens, d.Len) })
	}
	for _, tx := range []Tx{
		{Dst: 1, Kind: TxRdma, Segs: [][]byte{make([]byte, 16)}, Aux: 2}, // names no buffer
		{Dst: 0, Kind: TxRdma, Segs: [][]byte{make([]byte, 16)}, Aux: 1}, // no Placer on node 0
	} {
		src := NodeID(1 - tx.Dst)
		if err := net.NIC(src).Submit(&tx); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if len(lens) != 2 || lens[0] != 16 || lens[1] != 16 {
		t.Errorf("delivered lengths %v, want both transactions at 16", lens)
	}
	if l.calls != 1 || !bytes.Equal(held, bytes.Repeat([]byte{0xEE}, 16)) {
		t.Errorf("%d placements, registered buffer now %x: want one call that wrote nothing", l.calls, held)
	}
}
