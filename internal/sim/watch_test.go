package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// TestWorldSizeClass: a World is one allocation per run, and at 224 bytes
// it fills its malloc size class; one more word lands it in 240.
func TestWorldSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(World{}); got > 224 {
		t.Errorf("World is %d bytes, over the 224-byte size class", got)
	}
}

// watchLog runs a seeded mix of processes (sleeps that return in place or
// switch, parks ended by callbacks) and plain callbacks under a watcher,
// and returns one line per step: "run t" when an event or a resumed
// process runs at t, "leave t" when the watcher saw the clock leave t,
// "drained" at the end.
func watchLog(seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	w := NewWorld()
	var log []string
	note := func(what string) { log = append(log, fmt.Sprintf("%s %d", what, w.Now())) }
	w.Watch(func(drained bool) {
		if drained {
			log = append(log, "drained")
			return
		}
		note("leave")
	})
	for i := range 3 {
		steps := make([]int, 8)
		for j := range steps {
			steps[j] = rng.Intn(4) // 0..2: sleep that long, 3: park until a callback
		}
		w.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for _, s := range steps {
				if s == 3 {
					w.After(Time(1+rng.Intn(3)), p.Unpark)
					p.Park()
				} else {
					p.Sleep(Time(s))
				}
				note("run")
			}
		})
	}
	for range 10 {
		w.At(Time(rng.Intn(20)), func() { note("run") })
	}
	if err := w.Run(); err != nil {
		panic(err)
	}
	return log
}

// TestWatchSeesTheClockLeaveEveryInstant: between two steps at different
// instants the watcher runs exactly once, at the earlier instant, and
// never between two steps of one instant; a drained Run ends with one
// drained call.
func TestWatchSeesTheClockLeaveEveryInstant(t *testing.T) {
	for seed := range int64(200) {
		log := watchLog(seed)
		if log[len(log)-1] != "drained" {
			t.Fatalf("seed %d: the log ends %q, not with the drained call", seed, log[len(log)-1])
		}
		var at, left int64 = 0, -1 // the clock, and the instant last left
		for i, line := range log[:len(log)-1] {
			var what string
			var now int64
			if _, err := fmt.Sscanf(line, "%s %d", &what, &now); err != nil {
				t.Fatalf("seed %d: line %q: %v", seed, line, err)
			}
			switch {
			case what == "leave" && (now != at || left == at):
				t.Fatalf("seed %d, step %d: watcher at %d, clock at %d, last left %d:\n%v", seed, i, now, at, left, log)
			case what == "leave":
				left = now
			case now != at && left != at:
				t.Fatalf("seed %d, step %d: the clock moved %d -> %d unwatched:\n%v", seed, i, at, now, log)
			}
			at = now
		}
	}
}

// TestWatchSkipsDeadlock: a run that ends in deadlock is not drained.
func TestWatchSkipsDeadlock(t *testing.T) {
	w := NewWorld()
	calls, drained := 0, 0
	w.Watch(func(d bool) {
		if d {
			drained++
		} else {
			calls++
		}
	})
	w.Spawn("sleeper", func(p *Proc) { p.Sleep(5) })
	w.At(3, func() {})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if calls != 2 || drained != 1 {
		t.Errorf("%d instant calls and %d drained calls, want 2 and 1", calls, drained)
	}
	w.Spawn("stuck", func(p *Proc) { p.Park() })
	if err := w.Run(); err == nil {
		t.Fatal("a parked process nothing wakes: no deadlock reported")
	}
	if drained != 1 {
		t.Errorf("a deadlocked run called the watcher as drained")
	}
}

// TestWatchAtTheHorizon: a RunUntil that stops short of a pending event
// moves the clock to its horizon, and the watcher sees it leave first.
func TestWatchAtTheHorizon(t *testing.T) {
	w := NewWorld()
	var left []Time
	w.Watch(func(d bool) {
		if !d {
			left = append(left, w.Now())
		}
	})
	w.At(2, func() {})
	w.At(10, func() {})
	if err := w.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(left, []Time{0, 2}) || w.Now() != 5 {
		t.Errorf("watcher saw the clock leave %v, clock at %v; want [0 2] and 5", left, w.Now())
	}
}
