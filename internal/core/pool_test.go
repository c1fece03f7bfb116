package core

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"testing"

	"nmad/internal/sim"
)

// len walks the list and counts its records. A record filed twice links
// the list into a loop, which it reports instead of walking for good.
func (l *freeList[T, P]) len() int {
	n := 0
	for v := l.head; v != nil; v = *P(v).freeNext() {
		if n++; n > 1<<24 {
			panic("core: free list does not end: a record was filed twice")
		}
	}
	return n
}

// Deferred eager-receive completions wait in one engine queue, and each
// event pops its head. The queue must follow the events' order — by due
// instant, ties in match order — whatever the order of the matches: a
// small receive matched after a large one finishes its copy first.
func TestDeferredCompletionOrder(t *testing.T) {
	opts := DefaultOptions()
	opts.SubmitOverhead = 0 // a post matches a waiting message at its own instant
	w, e0, e1 := testWorld(t, opts)
	const t1 = 100 * sim.Microsecond
	recvs := []struct {
		tag     Tag
		size    int // message
		buf     int // landing area
		postAt  sim.Time
		wantErr error
	}{
		{tag: 1, size: 4096, buf: 4096, postAt: t1},
		{tag: 2, size: 64, buf: 64, postAt: t1 + sim.Microsecond},
		{tag: 3, size: 256, buf: 256, postAt: 2 * t1},
		{tag: 4, size: 256, buf: 256, postAt: 2 * t1},
		{tag: 5, size: 512, buf: 100, postAt: 3 * t1, wantErr: ErrTruncated},
	}
	w.Spawn("send", func(p *sim.Proc) {
		var reqs []Request
		for _, r := range recvs {
			reqs = append(reqs, e0.Gate(1).Isend(p, r.tag, bytes.Repeat([]byte{byte(r.tag)}, r.size)))
		}
		if err := WaitAll(p, reqs...); err != nil {
			t.Error(err)
		}
	})
	reqs := make([]RecvRequest, len(recvs))
	bufs := make([][]byte, len(recvs))
	doneAt := make([]sim.Time, len(recvs))
	errs := make([]error, len(recvs))
	var order []int
	for i, r := range recvs {
		bufs[i] = make([]byte, r.buf)
		w.At(r.postAt, func() {
			e1.Gate(0).PostRecvvMasked(&reqs[i], r.tag, ^Tag(0), [][]byte{bufs[i]}, func(_ uint32, err error) {
				doneAt[i], errs[i] = w.Now(), err
				order = append(order, i)
			})
		})
	}
	run(t, w)

	if want := []int{1, 0, 2, 3, 4}; !slices.Equal(order, want) {
		t.Errorf("receives completed in order %v, want %v", order, want)
	}
	for i, r := range recvs {
		n := min(r.size, r.buf)
		if want := r.postAt + e1.node.CopyCost(n); doneAt[i] != want {
			t.Errorf("tag %d: completed at %v, want its match instant %v + copy cost of %d B = %v",
				r.tag, doneAt[i], r.postAt, n, want)
		}
		if !errors.Is(errs[i], r.wantErr) {
			t.Errorf("tag %d: completed with %v, want %v", r.tag, errs[i], r.wantErr)
		}
		if reqs[i].N() != n || !bytes.Equal(bufs[i][:n], bytes.Repeat([]byte{byte(r.tag)}, n)) {
			t.Errorf("tag %d: received %d B %v, want %d B of %d", r.tag, reqs[i].N(), bufs[i][:min(8, n)], n, r.tag)
		}
	}
}

// Converting a send to a rendezvous frees its data wrapper at once, and
// the next send reuses it. The rendezvous record must hold its own copy
// of the body's segment list: a fresh wrapper's list is its inline seg,
// which recycling clears and the eager sends behind overwrite.
func TestRendezvousBodySurvivesWrapperReuse(t *testing.T) {
	w, e0, e1 := testWorld(t, DefaultOptions())
	const bigTag, big, small, smalls = 1, 256 << 10, 100, 8
	pattern := func(tag Tag, n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(int(tag)*31 + i)
		}
		return b
	}
	w.Spawn("send", func(p *sim.Proc) {
		reqs := []Request{e0.Gate(1).Isend(p, bigTag, pattern(bigTag, big))}
		for tag := Tag(2); tag < 2+smalls; tag++ {
			reqs = append(reqs, e0.Gate(1).Isend(p, tag, pattern(tag, small)))
		}
		if err := WaitAll(p, reqs...); err != nil {
			t.Error(err)
		}
	})
	w.Spawn("recv", func(p *sim.Proc) {
		for tag := Tag(2); tag < 2+smalls; tag++ {
			buf := make([]byte, small)
			if n, err := e1.Gate(0).Recv(p, tag, buf); err != nil || n != small || !bytes.Equal(buf, pattern(tag, small)) {
				t.Errorf("eager tag %d: %d B, %v, or its bytes differ from what was sent", tag, n, err)
			}
		}
		buf := make([]byte, big)
		n, err := e1.Gate(0).Recv(p, bigTag, buf)
		if err != nil || n != big {
			t.Errorf("rendezvous: %d B, %v; want %d B", n, err, big)
		} else if !bytes.Equal(buf, pattern(bigTag, big)) {
			t.Error("rendezvous body corrupted: it streamed from a recycled wrapper's segment")
		}
	})
	run(t, w)
	if s := e0.Stats(); s.RdvStarted != 1 || s.RdvCompleted != 1 {
		t.Errorf("rendezvous started %d, completed %d; want one each", s.RdvStarted, s.RdvCompleted)
	}
}

// TestColdEngineCarvesItsRecords: a fresh engine windowing 17 eager sends
// at once, a 1 024-node ring replay's per-node peak, makes the wrappers
// in slabs of 1, 2, 4, 4, 4 and 4 records (pool.go): six allocations, read
// as what the burst allocates beyond the same burst in a world whose
// wrapper list was stocked before it ran. One record made apiece would
// read 17. A second burst in the same world makes nothing on any list.
func TestColdEngineCarvesItsRecords(t *testing.T) {
	const peak = 17
	opts := DefaultOptions()
	opts.SubmitOverhead = 0 // every send is in the window before the first train leaves
	data, buf := make([]byte, 64), make([]byte, 64)
	burst := func(w *sim.World, e0, e1 *Engine) {
		w.Spawn("send", func(p *sim.Proc) {
			var reqs [peak]Request
			for i := range reqs {
				reqs[i] = e0.Gate(1).Isend(p, 7, data)
			}
			if err := WaitAll(p, reqs[:]...); err != nil {
				t.Error(err)
			}
		})
		w.Spawn("recv", func(p *sim.Proc) {
			for range peak {
				if _, err := e1.Gate(0).Recv(p, 7, buf); err != nil {
					t.Error(err)
				}
			}
		})
		run(t, w)
	}
	// mallocs runs a burst in a fresh world, its wrapper list stocked
	// with peak records first when stocked is set, and returns the
	// world, its engines and the objects the burst allocated.
	mallocs := func(stocked bool) (*sim.World, *Engine, *Engine, uint64) {
		w, e0, e1 := testWorld(t, opts)
		if stocked {
			var pws [peak]*packet
			for i := range pws {
				pws[i] = e0.freePkts.get(w, cMissPackets)
			}
			for _, pw := range pws {
				e0.freePkts.put(pw)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		burst(w, e0, e1)
		runtime.ReadMemStats(&after)
		return w, e0, e1, after.Mallocs - before.Mallocs
	}
	mallocs(false) // warm lazy runtime and package init paths out of the measurement
	w, e0, e1, cold := mallocs(false)
	_, _, _, warm := mallocs(true)
	wk := w.CountWork(nil)
	w.CountWork(wk)
	if made := wk.Get("core.misses.packets"); made < peak || e0.freePkts.len() != int(made) {
		t.Fatalf("%d wrappers made, %d listed after the burst: the burst did not window %d sends at once", made, e0.freePkts.len(), peak)
	}
	t.Logf("the cold burst allocated %d objects, the stocked one %d", cold, warm)
	if cold < warm || cold-warm > 6 {
		t.Errorf("a cold engine's %d wrappers cost %d allocations, want at most 6: a record is made one at a time again", peak, int64(cold)-int64(warm))
	}
	counters := append(poolCounters[:], "simnet.flights_made")
	made := make([]uint64, len(counters))
	for i, name := range counters {
		made[i] = wk.Get(name)
	}
	burst(w, e0, e1)
	for i, name := range counters {
		if got := wk.Get(name); got != made[i] {
			t.Errorf("%s: the second burst made %d records, want 0", name, got-made[i])
		}
	}
}
