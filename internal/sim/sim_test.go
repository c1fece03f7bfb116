package sim

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0ns"},
		{37, "37ns"},
		{5 * Microsecond, "5000ns"},
		{15 * Microsecond, "15.000µs"},
		{2500 * Microsecond, "2500.000µs"},
		{25 * Millisecond, "25.000ms"},
		{12 * Second, "12.000s"},
		{-3 * Microsecond, "-3000ns"},
		{-1, "-1ns"},
		{math.MaxInt64, "9223372036.855s"},
		// -t of the minimum is itself: formatting it must not recurse.
		{math.MinInt64, "-9223372036.855s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestByteTime(t *testing.T) {
	if got := ByteTime(1000, 1e9); got != 1*Microsecond {
		t.Errorf("1000 B at 1 GB/s = %v, want 1µs", got)
	}
	if got := ByteTime(0, 1e9); got != 0 {
		t.Errorf("0 bytes should take no time, got %v", got)
	}
	if got := ByteTime(123, 0); got != 0 {
		t.Errorf("zero bandwidth means free transfer in the model, got %v", got)
	}
	if got := ByteTime(-5, 1e9); got != 0 {
		t.Errorf("negative size should take no time, got %v", got)
	}
}

func TestByteTimeMonotonic(t *testing.T) {
	f := func(a, b uint16) bool {
		n, m := int(a), int(b)
		if n > m {
			n, m = m, n
		}
		return ByteTime(n, 2.5e8) <= ByteTime(m, 2.5e8)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEventOrdering(t *testing.T) {
	w := NewWorld()
	var order []int
	w.At(30, func() { order = append(order, 3) })
	w.At(10, func() { order = append(order, 1) })
	w.At(20, func() { order = append(order, 2) })
	w.At(10, func() { order = append(order, 11) }) // same time: FIFO
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 11, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("events fired in order %v, want %v", order, want)
		}
	}
	if w.Now() != 30 {
		t.Errorf("clock ended at %v, want 30ns", w.Now())
	}
}

func TestPastEventClampsToNow(t *testing.T) {
	w := NewWorld()
	var fired Time = -1
	w.At(100, func() {
		w.At(50, func() { fired = w.Now() }) // in the past: fires now
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 100 {
		t.Errorf("past event fired at %v, want clamped to 100ns", fired)
	}
}

func TestProcSleep(t *testing.T) {
	w := NewWorld()
	var wake []Time
	w.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10 * Microsecond)
			wake = append(wake, p.Now())
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	for i, at := range wake {
		want := Time(i+1) * 10 * Microsecond
		if at != want {
			t.Errorf("wakeup %d at %v, want %v", i, at, want)
		}
	}
	if w.live != 0 {
		t.Errorf("%d processes still live after Run", w.live)
	}
}

func TestTwoProcsInterleave(t *testing.T) {
	w := NewWorld()
	var trace []string
	w.Spawn("a", func(p *Proc) {
		trace = append(trace, "a0")
		p.Sleep(2)
		trace = append(trace, "a2")
		p.Sleep(2)
		trace = append(trace, "a4")
	})
	w.Spawn("b", func(p *Proc) {
		trace = append(trace, "b0")
		p.Sleep(3)
		trace = append(trace, "b3")
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a0", "b0", "a2", "b3", "a4"}
	if len(trace) != len(want) {
		t.Fatalf("trace %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
}

func TestCondSignalWakesLongestWaiting(t *testing.T) {
	w := NewWorld()
	c := NewCond(w)
	ready := false
	var woke []string
	for _, name := range []string{"w1", "w2", "w3"} {
		w.Spawn(name, func(p *Proc) {
			for !ready {
				c.Wait(p)
			}
			woke = append(woke, name)
		})
	}
	w.Spawn("waker", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		ready = true
		for range 3 {
			c.Signal()
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if strings.Join(woke, " ") != "w1 w2 w3" {
		t.Fatalf("woke %v, want all three waiters in the order they waited", woke)
	}
	if w.Now() != 5*Microsecond {
		t.Errorf("signalled wakeups should be immediate; clock at %v", w.Now())
	}
}

func TestCondSignalWakesOne(t *testing.T) {
	w := NewWorld()
	c := NewCond(w)
	tokens := 1
	got := 0
	for i := 0; i < 2; i++ {
		w.Spawn("taker", func(p *Proc) {
			for tokens == 0 {
				c.Wait(p)
			}
			tokens--
			got++
		})
	}
	err := w.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("expected a deadlock (one taker starves), got %v", err)
	}
	if got != 1 {
		t.Errorf("%d takers got a token, want exactly 1", got)
	}
	if len(dl.Blocked) != 1 || dl.Blocked[0] != "taker" {
		t.Errorf("deadlock report %v, want the one starving taker", dl.Blocked)
	}
}

func TestDeadlockDetection(t *testing.T) {
	w := NewWorld()
	c := NewCond(w)
	w.Spawn("stuck-a", func(p *Proc) { c.Wait(p) })
	w.Spawn("stuck-b", func(p *Proc) { c.Wait(p) })
	err := w.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if len(dl.Blocked) != 2 {
		t.Errorf("blocked list %v, want both processes", dl.Blocked)
	}
}

func TestRunUntil(t *testing.T) {
	w := NewWorld()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		w.At(at, func() { fired = append(fired, at) })
	}
	if err := w.RunUntil(25); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 {
		t.Fatalf("RunUntil(25) fired %v, want events at 10 and 20 only", fired)
	}
	if w.Now() != 25 {
		t.Errorf("clock at %v after RunUntil(25)", w.Now())
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 4 {
		t.Errorf("resumed Run fired %v, want all four events", fired)
	}

	// A horizon of zero is a horizon, not "none".
	w = NewWorld()
	n := 0
	w.At(10, func() { n++ })
	if err := w.RunUntil(0); err != nil {
		t.Fatal(err)
	}
	if n != 0 || w.Now() != 0 {
		t.Errorf("RunUntil(0) fired %d events and left the clock at %v, want none at 0ns", n, w.Now())
	}

	// A horizon behind the clock fires nothing and does not rewind it.
	w.At(200, func() { n++ })
	if err := w.RunUntil(150); err != nil {
		t.Fatal(err)
	}
	if n != 1 || w.Now() != 150 {
		t.Fatalf("RunUntil(150) fired %d events, clock %v; want 1 at 150ns", n, w.Now())
	}
	w.At(150, func() { n++ }) // due at the clock: behind the next horizon
	if err := w.RunUntil(50); err != nil {
		t.Fatal(err)
	}
	if n != 1 || w.Now() != 150 {
		t.Errorf("RunUntil(50) at 150ns fired %d events, clock %v; want 1 and 150ns", n, w.Now())
	}
	if err := w.RunUntil(150); err != nil { // a horizon on the clock fires what is due at it
		t.Fatal(err)
	}
	if n != 2 || w.Now() != 150 {
		t.Errorf("RunUntil(150) at 150ns fired %d events, clock %v; want 2 and 150ns", n, w.Now())
	}
}

func TestStop(t *testing.T) {
	w := NewWorld()
	n := 0
	w.At(10, func() { n++; w.Stop() })
	w.At(20, func() { n++ })
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("Stop did not halt the loop: %d events fired", n)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		w := NewWorld()
		c := NewCond(w)
		var stamps []Time
		flag := false
		w.Spawn("p1", func(p *Proc) {
			p.Sleep(7)
			flag = true
			c.Signal()
			p.Sleep(7)
			stamps = append(stamps, p.Now())
		})
		w.Spawn("p2", func(p *Proc) {
			for !flag {
				c.Wait(p)
			}
			stamps = append(stamps, p.Now())
			p.Sleep(3)
			stamps = append(stamps, p.Now())
		})
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return stamps
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("two identical runs produced different traces: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("two identical runs diverged: %v vs %v", a, b)
		}
	}
}

func TestSpawnFromProc(t *testing.T) {
	w := NewWorld()
	done := 0
	w.Spawn("parent", func(p *Proc) {
		p.Sleep(5)
		w.Spawn("child", func(p *Proc) {
			p.Sleep(5)
			done++
		})
		p.Sleep(20)
		done++
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 2 {
		t.Errorf("done = %d, want parent and child both finished", done)
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("equal seeds diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds collide too often: %d/1000", same)
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(17); v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
		if v := r.Range(5, 9); v < 5 || v > 9 {
			t.Fatalf("Range(5,9) = %d out of range", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64() = %g out of range", f)
		}
	}
}

func TestRNGBytes(t *testing.T) {
	r := NewRNG(1)
	b := make([]byte, 1021)
	r.Bytes(b)
	counts := map[byte]int{}
	for _, x := range b {
		counts[x]++
	}
	if len(counts) < 200 {
		t.Errorf("byte stream uses only %d distinct values; looks non-random", len(counts))
	}
	b2 := make([]byte, 1021)
	NewRNG(1).Bytes(b2)
	for i := range b {
		if b[i] != b2[i] {
			t.Fatal("Bytes is not deterministic for equal seeds")
		}
	}
}

func TestCondWaitersCount(t *testing.T) {
	w := NewWorld()
	c := NewCond(w)
	w.Spawn("a", func(p *Proc) { c.Wait(p) })
	w.Spawn("b", func(p *Proc) {
		p.Sleep(1)
		if got := len(c.waiters); got != 1 {
			t.Errorf("waiters = %d, want 1", got)
		}
		c.Signal()
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if len(c.waiters) != 0 {
		t.Errorf("waiters = %d after signal, want 0", len(c.waiters))
	}
}

// One Unpark costs one event however many other processes are parked:
// what a targeted wake-up buys over a broadcast, pinned as a count that is
// the same on any machine.
func TestUnparkWakesOnlyItsProcess(t *testing.T) {
	w := NewWorld()
	const n = 8
	procs := make([]*Proc, n)
	resumed := make([]int, n)
	release := false
	for i := range procs {
		procs[i] = w.Spawn("parked", func(p *Proc) {
			for !release {
				p.Park()
				resumed[i]++
			}
		})
	}
	w.At(10, func() {
		before := w.Events()
		procs[3].Unpark()
		procs[3].Unpark() // already on its way: not parked, no second resume
		if got := w.Events() - before; got != 1 {
			t.Errorf("one Unpark among %d parked processes pushed %d events, want 1", n, got)
		}
	})
	w.At(20, func() {
		for i, r := range resumed {
			want := 0
			if i == 3 {
				want = 1
			}
			if r != want {
				t.Errorf("process %d resumed %d times, want %d", i, r, want)
			}
		}
		release = true
		for _, p := range procs {
			p.Unpark()
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

// Sleep is not a park: an Unpark that reaches a sleeping process neither
// cuts the sleep short nor leaves a second resume behind for the sleep's
// own timer to collide with.
func TestUnparkDoesNotDisturbSleep(t *testing.T) {
	w := NewWorld()
	steps := 0
	sleeper := w.Spawn("sleeper", func(p *Proc) {
		p.Sleep(100)
		steps++
		if p.Now() != 100 {
			t.Errorf("Sleep(100) returned at %v", p.Now())
		}
		p.Sleep(100)
		steps++
		if p.Now() != 200 {
			t.Errorf("second Sleep(100) returned at %v, want 200ns", p.Now())
		}
	})
	w.At(50, func() {
		before := w.Events()
		sleeper.Unpark()
		if w.Events() != before {
			t.Error("Unpark of a sleeping process scheduled an event")
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if steps != 2 {
		t.Errorf("sleeper took %d steps, want 2", steps)
	}
}

// A parked process nothing unparks is what a deadlock report names.
func TestDeadlockNamesParkedProcess(t *testing.T) {
	w := NewWorld()
	w.Spawn("parked", func(p *Proc) { p.Park() })
	w.Spawn("sleeps-then-ends", func(p *Proc) { p.Sleep(5) })
	var dl *DeadlockError
	if err := w.Run(); !errors.As(err, &dl) {
		t.Fatalf("Run() = %v, want *DeadlockError", err)
	}
	if len(dl.Blocked) != 1 || dl.Blocked[0] != "parked" {
		t.Errorf("blocked = %v, want [parked]", dl.Blocked)
	}
}

// Cond.Wait returns on Signal only: a stray Unpark (a
// request the process once watched completing late) parks it again and
// does not leave it listed twice.
func TestCondWaitIgnoresStrayUnpark(t *testing.T) {
	w := NewWorld()
	c := NewCond(w)
	var woke Time = -1
	waiter := w.Spawn("waiter", func(p *Proc) {
		c.Wait(p)
		woke = p.Now()
	})
	w.At(10, waiter.Unpark)
	w.At(15, func() {
		if len(c.waiters) != 1 {
			t.Errorf("waiters = %d after a stray Unpark, want 1", len(c.waiters))
		}
	})
	w.At(20, c.Signal)
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 20 {
		t.Errorf("Wait returned at %v, want the Signal at 20ns", woke)
	}
}
