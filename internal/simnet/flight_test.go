package simnet

import (
	"bytes"
	"testing"

	"nmad/internal/sim"
)

// idleFlights counts the transaction records on the fabric's free list,
// failing on one that still holds anything of its last transaction.
func idleFlights(t *testing.T, f *Fabric) int {
	t.Helper()
	n := 0
	for fl := f.flights; fl != nil; fl = fl.next {
		if fl.pending != 0 || fl.nic != nil || fl.frame != nil || fl.onSent != nil {
			t.Fatalf("a listed flight still holds its transaction: %+v", *fl)
		}
		if n++; n > 10000 {
			t.Fatal("flight list does not end: a record was filed twice")
		}
	}
	return n
}

// TestRecycledFlightKeepsItsOwnTransaction: records are reused as soon as
// the last event of their transaction has fired, so under duplication,
// reorder jitter and loss every delivery — a duplicate that fires long
// after the NIC moved on included — must still carry the source, kind,
// immediate data and bytes of the transaction it belongs to.
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
	net.NIC(1).OnRecv(func(d Delivery) {
		src, i := NodeID(d.Aux>>32), int(uint32(d.Aux))
		if d.Src != src || d.Kind != kindOf(i) || !bytes.Equal(d.Data, payload(src, i)) {
			t.Errorf("delivery tagged (node %d, tx %d) carries src %d, kind %v, %d bytes %x...",
				src, i, d.Src, d.Kind, len(d.Data), d.Data[:1])
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
