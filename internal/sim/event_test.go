package sim

import (
	"cmp"
	"slices"
	"testing"
)

// TestEventOrderProperty drives one world through a seeded random schedule
// — future, same-instant and past (clamped) At calls, from outside and from
// inside callbacks, RunUntil horizons before, on and between events, and
// Stop in the middle of an instant followed by a resumed run — and checks
// the queue against its contract: events fire in (at, seq) order, the
// clock never goes back, it only moves once nothing is left for the
// instant it leaves, and Events counts every push. Future events land on
// 8 offsets from the clock, and on later seeds on 3 or 16: fewer instants
// than the queue keeps buckets open for, and more, so an instant's bucket
// is evicted and a second one opens for it.
func TestEventOrderProperty(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		spread := 8
		if seed > 20 {
			spread = [...]int{3, 16}[seed%2]
		}
		checkEventOrder(t, seed, spread)
	}
}

type scheduled struct {
	at  Time
	seq uint64
}

func checkEventOrder(t *testing.T, seed uint64, spread int) {
	r := NewRNG(seed)
	w := NewWorld()
	var pushed, fired []scheduled
	pending := map[Time]int{} // events pushed and not yet fired, per instant
	last := w.Now()
	const maxEvents = 3000

	// advanced checks what holds whenever the clock may have moved.
	advanced := func(where string) {
		if w.Now() < last {
			t.Fatalf("seed %d: %s: clock went back from %v to %v", seed, where, last, w.Now())
		}
		if w.Now() > last {
			for at, n := range pending {
				if at <= last {
					t.Fatalf("seed %d: %s: clock moved from %v to %v with %d event(s) left for %v", seed, where, last, w.Now(), n, at)
				}
			}
		}
		last = w.Now()
	}

	var schedule func()
	schedule = func() {
		var at Time
		switch r.Intn(4) {
		case 0: // same instant
			at = w.Now()
		case 1: // past: clamped to now
			at = w.Now() - Time(r.Range(1, 50))
		default: // future, often on an instant something else is due at
			at = w.Now() + Time(r.Range(1, spread)*5)
		}
		seq := w.Events() + 1 // the seq this At gives the event
		w.At(at, func() {
			advanced("callback")
			if pending[w.Now()]--; pending[w.Now()] == 0 {
				delete(pending, w.Now())
			}
			fired = append(fired, scheduled{at: w.Now(), seq: seq})
			for n := r.Intn(3); n > 0 && len(pushed) < maxEvents; n-- {
				schedule()
			}
			if r.Intn(40) == 0 {
				w.Stop()
			}
		})
		pushed = append(pushed, scheduled{at: max(at, w.Now()), seq: seq})
		pending[max(at, w.Now())]++
	}

	for step := 0; !w.queue.empty() || step == 0; step++ {
		for n := r.Intn(4); n > 0 && len(pushed) < maxEvents; n-- {
			schedule()
		}
		before := len(fired)
		var horizon Time
		bounded := true
		switch r.Intn(5) {
		case 0:
			horizon = w.Now() - Time(r.Range(0, 20)) // at or behind the clock
		case 1: // on the next event
			horizon = w.Now()
			if !w.queue.empty() {
				horizon = w.queue.nextAt(w.Now())
			}
		case 2:
			horizon = w.Now() + Time(r.Range(1, 60)) // between events
		case 3:
			horizon = w.Now() + Time(r.Range(1, 60)*5) // on a multiple of the step
		default:
			bounded = false
		}
		var err error
		if bounded {
			err = w.RunUntil(horizon)
		} else {
			err = w.Run()
		}
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		advanced("return")
		if bounded {
			for _, f := range fired[before:] {
				if f.at > horizon {
					t.Fatalf("seed %d: RunUntil(%v) fired an event due at %v", seed, horizon, f.at)
				}
			}
		}
	}

	if got := w.Events(); got != uint64(len(pushed)) {
		t.Errorf("seed %d: Events() = %d after %d pushes", seed, got, len(pushed))
	}
	checkFiredInOrder(t, seed, fired, pushed)
}

// checkFiredInOrder fails unless fired is pushed sorted by (at, seq).
func checkFiredInOrder(t *testing.T, seed uint64, fired, pushed []scheduled) {
	t.Helper()
	want := slices.Clone(pushed)
	slices.SortFunc(want, func(a, b scheduled) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
	})
	if len(fired) != len(want) {
		t.Fatalf("seed %d: %d events fired, %d pushed", seed, len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("seed %d: event %d fired as %+v, want %+v by (at, seq)", seed, i, fired[i], want[i])
		}
	}
}

// Pushes that cycle over more instants than the queue keeps buckets open
// for evict each instant's bucket before its next push, so every instant
// collects several buckets; they must fire in push order. Stop lands
// inside a spliced bucket, and RunUntil horizons fall behind, on and just
// past an instant whose buckets were spliced, and just before one whose
// buckets are still pending — which then takes more events.
func TestEventBucketsReopenInOrder(t *testing.T) {
	for _, instants := range []int{1, openBuckets, openBuckets + 1, 2*openBuckets + 1} {
		w := NewWorld()
		var pushed, fired []scheduled
		var push func(at Time, then func())
		push = func(at Time, then func()) {
			seq := w.Events() + 1
			w.At(at, func() {
				fired = append(fired, scheduled{at: w.Now(), seq: seq})
				if then != nil {
					then()
				}
			})
			pushed = append(pushed, scheduled{at: max(at, w.Now()), seq: seq})
		}
		at10 := 0
		first10 := func() {
			if at10++; at10 == 3 {
				w.Stop()
			}
			if at10 != 1 {
				return
			}
			// Cycle twice over the later instants, push each twice in a row,
			// and queue one event for this very instant behind every bucket
			// already spliced for it.
			for i := range 2 * instants {
				push(Time(10*(i%instants+2)), nil)
			}
			for i := range instants {
				push(Time(10*(i+2)), nil)
				push(Time(10*(i+2)), nil)
			}
			push(w.Now(), nil)
		}
		for range 5 {
			for i := range instants {
				push(Time(10*(i+1)), first10)
			}
		}

		run := func(until Time, wantNow Time) {
			t.Helper()
			var err error
			if until < 0 {
				err = w.Run()
			} else {
				err = w.RunUntil(until)
			}
			if err != nil {
				t.Fatal(err)
			}
			if w.Now() != wantNow {
				t.Fatalf("%d instants: clock at %v, want %v", instants, w.Now(), wantNow)
			}
		}
		run(-1, 10) // stopped by the third event at 10
		if len(fired) != 3 {
			t.Fatalf("%d instants: %d events fired before Stop, want 3", instants, len(fired))
		}
		run(9, 10)  // behind the clock: nothing
		run(10, 10) // the rest of instant 10
		for _, f := range fired {
			if f.at != 10 {
				t.Fatalf("%d instants: RunUntil(10) fired an event due at %v", instants, f.at)
			}
		}
		run(19, 19) // just before the buckets of 20
		push(20, nil)
		push(19, nil)
		push(25, nil)
		run(21, 21) // 19, all of 20, not 25
		run(-1, max(25, Time(10*(instants+1))))
		checkFiredInOrder(t, uint64(instants), fired, pushed)
	}
}

// A warm queue schedules and fires without allocating, on every path:
// slots come back through the free list and neither slice grows.
func TestEventQueueWarmAllocatesNothing(t *testing.T) {
	w := NewWorld()
	nop := func() {}
	cycle := func() {
		for i := 0; i < 100; i++ {
			w.After(Time(i%7+10), nop) // a new bucket: seven instants in turn
			w.After(Time(i%3+1), nop)  // appended to an open bucket
			w.After(0, nop)            // same-instant FIFO
		}
		mustRun(t, w)
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("a warm push/pop cycle allocates %v objects, want 0", n)
	}
}

// A cold world that reaches depth 16 384 pays for its slices' growth once.
// The []event binary heap this queue replaced read 20 objects here, future
// or same-instant: the append growths of its one slice. Keys and slab, each
// doubling from 64, read 18 for future events and 9 (the slab alone) for
// same-instant ones.
func TestEventQueueColdGrowth(t *testing.T) {
	const depth, parent = 16_384, 20
	nop := func() {}
	for _, c := range []struct {
		name string
		at   func(i int) Time
	}{
		{"future", func(i int) Time { return Time(i + 1) }},
		{"same-instant", func(int) Time { return 0 }},
	} {
		n := testing.AllocsPerRun(3, func() {
			w := NewWorld()
			for i := 0; i < depth; i++ {
				w.At(c.at(i), nop)
			}
			mustRun(t, w)
		})
		t.Logf("%s: a cold world reaching depth %d allocates %v objects", c.name, depth, n)
		if n > parent {
			t.Errorf("%s: a cold world reaching depth %d allocates %v objects, want at most %d", c.name, depth, n, parent)
		}
	}
}
