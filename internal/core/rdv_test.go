package core

import (
	"bytes"
	"reflect"
	"testing"

	"nmad/internal/sim"
	"nmad/internal/simnet"
)

// coverByCopy is rdvRecv.cover as it was before it merged in place: the
// reference the in-place merge must agree with, fragment by fragment.
func coverByCopy(spans []span, granted, lo, hi int) ([]span, int) {
	hi = min(hi, granted)
	lo = max(lo, 0)
	if lo >= hi {
		return spans, 0
	}
	newly := hi - lo
	nlo, nhi := lo, hi
	i := 0
	for i < len(spans) && spans[i].hi < lo {
		i++
	}
	j := i
	for j < len(spans) && spans[j].lo <= hi {
		s := spans[j]
		if olo, ohi := max(s.lo, lo), min(s.hi, hi); ohi > olo {
			newly -= ohi - olo
		}
		nlo, nhi = min(nlo, s.lo), max(nhi, s.hi)
		j++
	}
	out := make([]span, 0, len(spans)-(j-i)+1)
	out = append(out, spans[:i]...)
	out = append(out, span{nlo, nhi})
	out = append(out, spans[j:]...)
	return out, newly
}

// The in-place merge credits exactly what the copying one did, leaves the
// same covered set, and stops allocating once the set's storage has grown.
func TestCoverMergesInPlace(t *testing.T) {
	const granted = 1000
	for _, tc := range []struct {
		name  string
		frags [][2]int
	}{
		{"disjoint", [][2]int{{0, 100}, {200, 300}, {400, 500}, {600, 1000}}},
		{"in order, abutting", [][2]int{{0, 250}, {250, 500}, {500, 750}, {750, 1000}}},
		{"overlapping", [][2]int{{0, 300}, {200, 500}, {450, 800}, {100, 900}, {850, 1000}}},
		{"duplicate", [][2]int{{0, 400}, {0, 400}, {400, 1000}, {400, 1000}, {0, 1000}}},
		{"out of order", [][2]int{{800, 1000}, {0, 100}, {400, 600}, {100, 400}, {600, 800}}},
		{"bridging several", [][2]int{{100, 200}, {300, 400}, {500, 600}, {700, 800}, {50, 750}, {0, 1000}}},
		{"over the grant", [][2]int{{900, 1200}, {-50, 100}, {1000, 1100}, {100, 900}, {0, 2000}}},
		{"empty and inverted", [][2]int{{10, 10}, {300, 200}, {0, 0}, {0, 1000}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rr := &rdvRecv{granted: granted, remaining: granted}
			var ref []span
			refRemaining := granted
			for _, f := range tc.frags {
				got := rr.cover(f[0], f[1])
				var want int
				ref, want = coverByCopy(ref, granted, f[0], f[1])
				rr.remaining -= got
				refRemaining -= want
				if got != want || !reflect.DeepEqual(append([]span{}, rr.spans...), append([]span{}, ref...)) {
					t.Fatalf("cover(%d, %d) = %d over %v, the copying merge gives %d over %v", f[0], f[1], got, rr.spans, want, ref)
				}
			}
			if rr.remaining != refRemaining {
				t.Errorf("remaining %d, the copying merge leaves %d", rr.remaining, refRemaining)
			}
			spans := rr.spans[:0]
			allocs := testing.AllocsPerRun(10, func() {
				rr.spans = spans
				for _, f := range tc.frags {
					rr.cover(f[0], f[1])
				}
			})
			if allocs != 0 {
				t.Errorf("%.0f allocations per pass once the spans have grown, want 0", allocs)
			}
		})
	}
}

// A rendezvous body that loses RDMA fragments is re-streamed on the
// receiver's request (the body watch re-pushes the CTS) — and with the
// transaction records, the RDMA chains and the body watches recycled,
// those reissues run on records earlier messages used: every payload byte
// must still arrive intact, and nothing may be left behind.
func TestBodyReissueOnRecycledRecords(t *testing.T) {
	const bodies, size = 16, 256 << 10
	w, e0, e1 := lossyPair(t, DefaultOptions(),
		simnet.FaultProfile{Seed: 5, Rails: []simnet.RailFaults{{DropProb: 0.2}}})
	w.Spawn("send", func(p *sim.Proc) {
		msg := make([]byte, size) // one buffer, rewritten once each send completes
		for i := range bodies {
			fillSeq(msg, byte(i))
			if err := e0.Gate(1).Send(p, 5, msg); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}
	})
	w.Spawn("recv", func(p *sim.Proc) {
		buf, want := make([]byte, size), make([]byte, size)
		for i := range bodies {
			clear(buf)
			if n, err := e1.Gate(0).Recv(p, 5, buf); err != nil || n != size {
				t.Fatalf("recv %d: %d bytes, %v", i, n, err)
			}
			if fillSeq(want, byte(i)); !bytes.Equal(buf, want) {
				t.Fatalf("recv %d: the body is not the one sent", i)
			}
		}
	})
	run(t, w)
	st := e0.Stats()
	if st.BodyReissues == 0 {
		t.Fatal("20% drop caused no body reissue: the test no longer exercises one")
	}
	if st.RdvCompleted != bodies {
		t.Errorf("RdvCompleted = %d, want %d", st.RdvCompleted, bodies)
	}
	if len(e0.rdvSend) != 0 || len(e1.rdvRecv) != 0 {
		t.Errorf("leaked rendezvous state: %d send, %d recv", len(e0.rdvSend), len(e1.rdvRecv))
	}
	// The lists are short: the records served message after message,
	// reissues included.
	streams := bodies + st.BodyReissues
	for _, l := range []struct {
		what string
		n    int
	}{
		{"sender-side transaction records", len(e0.freeRdvSends)},
		{"RDMA chains", len(e0.freeChains)},
		{"receiver-side transaction records", len(e1.freeRdvRecvs)},
	} {
		if l.n == 0 || l.n > bodies/4 {
			t.Errorf("%d %s on the list after %d streams, want between 1 and %d", l.n, l.what, streams, bodies/4)
		}
	}
	t.Logf("%d bodies, %d reissues: %d/%d/%d records", bodies, st.BodyReissues,
		len(e0.freeRdvSends), len(e0.freeChains), len(e1.freeRdvRecvs))
}
