package sim

import (
	"errors"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// switchAllocs returns allocations per extra process switch between a
// short and a long run of the same workload (the marginalAllocs shape of
// core/alloc_test.go): what a world and its spawns cost cancels out.
func switchAllocs(run func(switches int), short, long int) float64 {
	run(4) // warm lazy runtime paths out of the measurement
	a1 := testing.AllocsPerRun(5, func() { run(short) })
	a2 := testing.AllocsPerRun(5, func() { run(long) })
	return (a2 - a1) / float64(long-short)
}

func mustRun(tb testing.TB, w *World) {
	tb.Helper()
	if err := w.Run(); err != nil {
		tb.Fatal(err)
	}
}

// yieldLoop runs two processes through n Sleep(0) switches between them:
// each finds the other's wake-up already due, so none returns in place.
func yieldLoop(tb testing.TB, n int) {
	w := NewWorld()
	for _, k := range []int{(n + 1) / 2, n / 2} {
		w.Spawn("yielder", func(p *Proc) {
			for i := 0; i < k; i++ {
				p.Sleep(0)
			}
		})
	}
	mustRun(tb, w)
}

// wakeLoop runs a waiter that blocks n times through wait and a waker
// that wakes it n times through wake, yielding first so the waiter is
// blocked by then: two switches per wake-up.
func wakeLoop(tb testing.TB, n int, wait func(p *Proc), wake func(waiter *Proc)) {
	w := NewWorld()
	waiter := w.Spawn("waiter", func(p *Proc) {
		for i := 0; i < n; i++ {
			wait(p)
		}
	})
	w.Spawn("waker", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(0)
			wake(waiter)
		}
	})
	mustRun(tb, w)
}

// selfWakeLoop runs a process that parks n times, each time until a
// chain of three plain events — the shape of a NIC completion — unparks
// it: it fires them itself and returns in place, with no switch.
func selfWakeLoop(tb testing.TB, n int) {
	w := NewWorld()
	var waiter *Proc
	wake := func() { waiter.Unpark() }
	hop2 := func() { w.After(1, wake) }
	hop1 := func() { w.After(1, hop2) }
	waiter = w.Spawn("waiter", func(p *Proc) {
		for i := 0; i < n; i++ {
			w.After(1, hop1)
			p.Park()
		}
	})
	mustRun(tb, w)
}

// A steady-state switch allocates nothing, whichever way the process
// blocks, and neither does a wait that returns in place: the coroutine,
// the one runFn and the waiting set are all built by the time a process
// first runs.
func TestSwitchAllocatesNothing(t *testing.T) {
	c := NewCond(nil) // a bare waiter list: one serves every run
	for _, tc := range []struct {
		name string
		run  func(n int)
	}{
		{"Sleep(0)", func(n int) { yieldLoop(t, n) }},
		{"Park/Unpark", func(n int) { wakeLoop(t, n, (*Proc).Park, (*Proc).Unpark) }},
		{"Cond.Wait/Signal", func(n int) { wakeLoop(t, n, c.Wait, func(*Proc) { c.Signal() }) }},
		{"Park/self-wake", func(n int) { selfWakeLoop(t, n) }},
	} {
		if got := switchAllocs(tc.run, 64, 1088); got != 0 {
			t.Errorf("%s: %.3f allocations per switch, want 0", tc.name, got)
		}
	}
}

// Spawn and Unpark only schedule: the child's first step and the woken
// process's resume are events behind whatever the current instant already
// holds, and run once the caller has blocked — in (at, seq) order, the
// order TestEventOrdering asserts for plain events.
func TestSpawnAndUnparkInterleaveInEventOrder(t *testing.T) {
	w := NewWorld()
	var trace []string
	say := func(s string) { trace = append(trace, s) }
	parked := w.Spawn("parked", func(p *Proc) {
		say("parked starts")
		p.Park()
		say("parked woken")
	})
	w.Spawn("parent", func(p *Proc) {
		say("parent starts")
		w.Spawn("child", func(p *Proc) {
			say("child starts")
			p.Sleep(0)
			say("child ends")
		})
		say("parent spawned")
		parked.Unpark()
		say("parent unparked")
		p.Sleep(0)
		say("parent ends")
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"parked starts", "parent starts", "parent spawned", "parent unparked",
		"child starts", "parked woken", "parent ends", "child ends",
	}
	if !slices.Equal(trace, want) {
		t.Errorf("interleaving\n got %v\nwant %v", trace, want)
	}
}

// A process that ends through runtime.Goexit — what t.Fatal does inside a
// spawned process — ends the goroutine that called Run, from inside Run:
// in a test that is the test's own goroutine, the only one testing allows
// FailNow on. The process is no longer live and nothing is left marked
// running, so the world is still usable. A Goexit from a callback that a
// blocked process fires on its own stack ends that goroutine too.
func TestProcGoexitReturnsControl(t *testing.T) {
	w := NewWorld()
	bystander := false
	w.Spawn("quitter", func(p *Proc) {
		p.Sleep(5)
		runtime.Goexit()
	})
	w.Spawn("bystander", func(p *Proc) {
		p.Sleep(10)
		bystander = true
	})
	runToGoexit(t, w)
	if w.live != 1 || w.cur != nil || w.Now() != 5 {
		t.Errorf("after Goexit: live = %d, cur = %v, now = %v; want 1, nil, 5ns", w.live, w.cur, w.Now())
	}
	if err := w.Run(); err != nil || !bystander || w.live != 0 {
		t.Errorf("second Run = %v, bystander ran = %v, live = %d; want nil, true, 0", err, bystander, w.live)
	}

	w = NewWorld()
	w.Spawn("parked", (*Proc).Park)
	w.At(5, runtime.Goexit) // the next event once parked has blocked: fired on its stack
	runToGoexit(t, w)
	if w.cur != nil || w.Now() != 5 {
		t.Errorf("after a callback's Goexit: cur = %v, now = %v; want nil, 5ns", w.cur, w.Now())
	}
}

// runToGoexit runs w in a goroutine of its own and fails the test unless
// a Goexit ended that goroutine inside Run.
func runToGoexit(t *testing.T, w *World) {
	t.Helper()
	unwound, returned := false, false
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		defer func() { unwound = true }()
		_ = w.Run()
		returned = true
	}()
	<-ended
	if !unwound || returned {
		t.Fatalf("goroutine in Run: deferred call ran = %v, Run returned = %v; want true, false", unwound, returned)
	}
}

var errBoom = errors.New("boom")

//go:noinline
func panicOuter() { panicMiddle() }

//go:noinline
func panicMiddle() { panicInnermost() }

//go:noinline
func panicInnermost() { panic(errBoom) }

// A process's panic comes out of Run with the process's name and the
// stack it happened on; the re-raised panic's own traceback shows only
// the scheduler.
func TestProcPanicKeepsNameAndStack(t *testing.T) {
	w := NewWorld()
	w.Spawn("bystander", func(p *Proc) { p.Sleep(10) })
	w.Spawn("faulty", func(p *Proc) {
		p.Sleep(5)
		panicOuter()
	})
	var got any
	func() {
		defer func() { got = recover() }()
		_ = w.Run()
	}()
	pp, ok := got.(*ProcPanic)
	if !ok {
		t.Fatalf("Run panicked with %T (%v), want *ProcPanic", got, got)
	}
	if pp.Proc != "faulty" || !errors.Is(pp, errBoom) {
		t.Errorf("ProcPanic{Proc: %q, Value: %v}, want faulty and a Value errors.Is finds errBoom in", pp.Proc, pp.Value)
	}
	if !strings.Contains(string(pp.Stack), "panicInnermost") {
		t.Errorf("stack does not reach the panicking function:\n%s", pp.Stack)
	}
	for _, part := range []string{"faulty", "boom", "panicInnermost"} {
		if !strings.Contains(pp.Error(), part) {
			t.Errorf("Error() lacks %q:\n%s", part, pp.Error())
		}
	}
	if w.live != 1 || w.cur != nil {
		t.Errorf("after the panic: live = %d, cur = %v; want 1, nil", w.live, w.cur)
	}
}

// A callback that panics while a blocked process fires it comes out of
// Run as its own value, not as a *ProcPanic of that process: the process
// stays parked, a later Run names it in its deadlock report, and an
// Unpark still wakes it.
func TestInlineCallbackPanicLeavesTheProcessParked(t *testing.T) {
	w := NewWorld()
	woken := false
	bystander := w.Spawn("bystander", func(p *Proc) {
		p.Park()
		woken = true
	})
	w.At(5, panicOuter)
	var got any
	func() {
		defer func() { got = recover() }()
		_ = w.Run()
	}()
	var pp *ProcPanic
	if err, ok := got.(error); !ok || errors.As(err, &pp) || !errors.Is(err, errBoom) {
		t.Fatalf("Run panicked with %T (%v), want errBoom itself", got, got)
	}
	if w.live != 1 || w.cur != nil || w.Now() != 5 {
		t.Errorf("after the panic: live = %d, cur = %v, now = %v; want 1, nil, 5ns", w.live, w.cur, w.Now())
	}
	var dl *DeadlockError
	if err := w.Run(); !errors.As(err, &dl) || !slices.Equal(dl.Blocked, []string{"bystander"}) {
		t.Fatalf("second Run = %v, want a deadlock of bystander", err)
	}
	w.At(7, bystander.Unpark)
	if err := w.Run(); err != nil || !woken || w.live != 0 {
		t.Errorf("Run after Unpark = %v, woken = %v, live = %d; want nil, true, 0", err, woken, w.live)
	}
}

// The callback's stack, on the blocked process's coroutine and so not in
// the traceback of Run's goroutine, is in the crash report of a panic
// nobody recovers, as ProcPanic's Error carries a process's. The crash
// runs in a child test binary.
func TestInlineCallbackPanicKeepsItsStack(t *testing.T) {
	const child = "SIM_INLINE_CALLBACK_CRASH"
	if os.Getenv(child) != "" {
		w := NewWorld()
		w.Spawn("bystander", (*Proc).Park)
		w.At(5, panicOuter)
		_ = w.Run()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestInlineCallbackPanicKeepsItsStack$")
	cmd.Env = append(os.Environ(), child+"=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("the crashing child exited 0:\n%s", out)
	}
	for _, part := range []string{"event callback panicked: boom", "panicInnermost", "panic: boom"} {
		if !strings.Contains(string(out), part) {
			t.Errorf("crash report lacks %q:\n%s", part, out)
		}
	}
	if strings.Contains(string(out), "process bystander panicked") {
		t.Errorf("crash report blames the bystander:\n%s", out)
	}
}

func TestDeadlockListsEveryParkedProcessSorted(t *testing.T) {
	w := NewWorld()
	for _, name := range []string{"zeta", "alpha", "mu"} {
		w.Spawn(name, func(p *Proc) {
			p.Sleep(3)
			p.Park()
		})
	}
	var dl *DeadlockError
	if err := w.Run(); !errors.As(err, &dl) {
		t.Fatalf("Run() = %v, want *DeadlockError", err)
	}
	if want := []string{"alpha", "mu", "zeta"}; !slices.Equal(dl.Blocked, want) {
		t.Errorf("blocked = %v, want %v", dl.Blocked, want)
	}
}

// A finished process gives its coroutine back: nothing of it outlives
// the return of its function.
func TestFinishedProcessesLeaveNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	w := NewWorld()
	finished := 0
	for i := 0; i < 10000; i++ {
		w.Spawn("short-lived", func(p *Proc) {
			p.Sleep(Time(i % 7))
			finished++
		})
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	// Not != : a goroutine of an earlier test may still be on its way out.
	if after := runtime.NumGoroutine(); finished != 10000 || after > before {
		t.Errorf("%d processes finished, goroutines %d -> %d; want 10000 and no growth", finished, before, after)
	}
}
