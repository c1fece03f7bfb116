package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// Proc is a cooperative simulated process. Application-level code (MPI
// ranks, benchmark drivers, example programs) runs inside processes so it
// can block — on time with Sleep, or on state with Park — while the
// engine underneath runs in event callbacks.
//
// A process is a coroutine (iter.Pull) that the scheduler resumes with
// next. Blocked, it fires the events before its own wake-up itself and
// yields (a switch that skips the Go scheduler) only when another
// process's wake-up comes first. Exactly one process executes at a time;
// a process runs until it blocks or returns, so plain Go code inside a
// process needs no synchronization.
type Proc struct {
	w    *World
	name string
	// next runs the process until it blocks or finishes; yield, called by
	// the process, suspends it and makes next return. Both come from the
	// one iter.Pull in Spawn.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	// runFn is the one resume closure the process ever needs: every
	// wake-up — Sleep timers, Unpark, the first step — schedules this
	// same function instead of allocating a fresh closure per blocking
	// call. Sleeps and waits are the hottest operations of a large replay,
	// so the saving is per-op, not per-process.
	runFn func()
	wake  slotLink // the queued wake-up's slot, 0 if none
	// waitIdx is the process's slot in World.waiting while parked, -1
	// otherwise (see Park / Unpark).
	waitIdx int
}

// ProcPanic is what World.Run panics with when a process panics. The
// coroutine hand-off re-raises a process's panic on the stack of whoever
// called Run, where the traceback no longer shows the process; ProcPanic
// carries what that loses.
type ProcPanic struct {
	Proc  string // name of the process that panicked
	Value any    // what it panicked with
	Stack []byte // the process's stack at the panic (debug.Stack)
}

func (e *ProcPanic) Error() string {
	return fmt.Sprintf("sim: process %s panicked: %v\n\n%s", e.Proc, e.Value, e.Stack)
}

// Unwrap returns the panic value when the process panicked with an error.
func (e *ProcPanic) Unwrap() error {
	err, _ := e.Value.(error)
	return err
}

// Spawn creates a process executing fn and schedules its first step at the
// current virtual time. fn receives the process itself for blocking calls.
//
// Whatever ends fn abnormally surfaces in the goroutine that called Run,
// from inside Run, with the process no longer counted live: a panic as a
// *ProcPanic, a runtime.Goexit (a t.Fatal inside fn) as the Goexit of
// that goroutine; a callback fired while fn blocks panics as itself.
func (w *World) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{w: w, name: name, waitIdx: -1}
	p.runFn = func() { w.runProc(p) }
	w.live++
	// The stop function is dropped on purpose: a process that never
	// finishes stays suspended in its coroutine for a deadlock report to
	// name; unwinding it would make Park return into code that believes
	// it was woken.
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			w.live--
			if v := recover(); v != nil {
				panic(&ProcPanic{Proc: p.name, Value: v, Stack: debug.Stack()})
			}
		}()
		fn(p)
	})
	w.atProc(w.now, p)
	return p
}

// Name returns the name given at Spawn time (used in deadlock reports).
func (p *Proc) Name() string { return p.name }

// World returns the world the process lives in.
func (p *Proc) World() *World { return p.w }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.w.now }

// Sleep blocks the process for d of virtual time. Sleep(0) yields: every
// event already scheduled for the current instant fires before the process
// resumes.
//
// When the wake-up would be the next event to fire — nothing else is due
// by then, no Stop is pending and no RunUntil horizon comes first — Sleep
// returns in place: it takes the wake-up's event number and moves the
// clock, with no event queued and no switch out of the process. The order
// in which everything fires, and Events, are the same either way.
func (p *Proc) Sleep(d Time) {
	w := p.w
	at := w.after(max(d, 0))
	if w.cur == p && !w.stopped && (!w.bounded || at <= w.limit) && w.queue.firesNext(at) {
		w.seq++
		if wk := w.work; wk != nil {
			wk.n[cEvents]++
			wk.n[cInPlace]++
		}
		w.now = at
		return
	}
	w.atProc(at, p)
	if !p.block() {
		p.yield(struct{}{})
	}
}

// Park blocks the process until Unpark: the one way a process blocks on
// state (a request completing, a job finishing, a Cond). The contract:
//
//   - A wake-up may be spurious — something p asked to be woken by
//     earlier may call Unpark late — so every caller parks in a loop on
//     its own predicate: for !done { p.Park() }.
//   - Sleep is not a park: Unpark does nothing to a sleeping or running
//     process, so a late wake-up neither shortens a sleep nor leaves a
//     second resume behind for the sleep's timer to collide with.
//   - Park may fire the callbacks that end the wait itself (see block),
//     as scheduler context and in event order, as Run would.
//
// A parked process nothing unparks is named in Run's DeadlockError.
func (p *Proc) Park() {
	p.waitIdx = len(p.w.waiting)
	p.w.waiting = append(p.w.waiting, p)
	if !p.block() {
		p.yield(struct{}{})
	}
}

// Unpark resumes p at the current instant — as an event of its own, once
// the caller has blocked — if p is parked, and does nothing otherwise (a
// nil p is nobody waiting), so one Park is never resumed twice. It may be
// called from scheduler context or from another process.
func (p *Proc) Unpark() {
	if p == nil || p.waitIdx < 0 {
		return
	}
	// Swap-remove: World.waiting is a set kept as a slice, so park/unpark
	// cycles allocate nothing; deadlock reports sort it by name.
	w, i := p.w, p.waitIdx
	last := len(w.waiting) - 1
	w.waiting[i] = w.waiting[last]
	w.waiting[i].waitIdx = i
	w.waiting[last] = nil
	w.waiting = w.waiting[:last]
	p.waitIdx = -1
	w.atProc(w.now, p)
}

// block fires the plain callbacks due before p's wake-up on p's stack,
// with no process current, as Run would, and reports true when the
// wake-up came next. Otherwise the caller yields and Run goes on. A
// callback's panic stops before unwinding p; runProc raises it over an
// aborted panic carrying the callback's stack. Something must eventually
// wake p (a Sleep timer or Unpark) or the process is dead; the kernel then
// reports a deadlock.
func (p *Proc) block() bool {
	w := p.w
	if w.cur != p {
		panic("sim: blocking call from the wrong context (process " + p.name + " is not running)")
	}
	w.cur = nil
	defer func() {
		w.cur = p
		if v := recover(); v != nil {
			msg := fmt.Sprintf("sim: event callback panicked: %v\n\n%s", v, debug.Stack())
			w.reraise = func() { w.reraise = nil; defer func() { panic(v) }(); panic(msg) }
		}
	}()
	for w.ready() {
		if l := w.queue.nextWake(); l != 0 {
			if l != p.wake {
				return false
			}
			w.now, _ = w.queue.pop(w.now)
			p.wake = 0
			w.work.add(cInPlace, 1)
			return true
		}
		var fn func()
		w.now, fn = w.queue.pop(w.now)
		fn()
	}
	return false
}
