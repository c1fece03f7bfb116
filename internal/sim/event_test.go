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
// clock never goes back, it only moves once the same-instant FIFO is
// empty, and Events counts every push.
func TestEventOrderProperty(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		checkEventOrder(t, seed)
	}
}

type scheduled struct {
	at  Time
	seq uint64
}

func checkEventOrder(t *testing.T, seed uint64) {
	r := NewRNG(seed)
	w := NewWorld()
	var pushed, fired []scheduled
	last := w.Now()
	const maxEvents = 3000

	// advanced checks what holds whenever the clock has just moved.
	advanced := func(where string) {
		if w.Now() < last {
			t.Fatalf("seed %d: %s: clock went back from %v to %v", seed, where, last, w.Now())
		}
		if w.Now() > last && w.queue.head != 0 {
			t.Fatalf("seed %d: %s: clock moved to %v with the same-instant FIFO not empty", seed, where, w.Now())
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
			at = w.Now() + Time(r.Range(1, 8)*5)
		}
		seq := w.Events() + 1 // the seq this At gives the event
		w.At(at, func() {
			advanced("callback")
			fired = append(fired, scheduled{at: w.Now(), seq: seq})
			for n := r.Intn(3); n > 0 && len(pushed) < maxEvents; n-- {
				schedule()
			}
			if r.Intn(40) == 0 {
				w.Stop()
			}
		})
		pushed = append(pushed, scheduled{at: max(at, w.Now()), seq: seq})
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

// A warm queue schedules and fires without allocating, on either path:
// slots come back through the free list and neither slice grows.
func TestEventQueueWarmAllocatesNothing(t *testing.T) {
	w := NewWorld()
	nop := func() {}
	cycle := func() {
		for i := 0; i < 100; i++ {
			w.After(Time(i%7+1), nop) // heap
			w.After(0, nop)           // same-instant FIFO
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
