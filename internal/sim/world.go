package sim

import (
	"fmt"
	"math"
	"sort"
)

// World owns the virtual clock, the event queue and every process spawned
// into the simulation. A World is single-threaded by construction: the
// scheduler (whoever calls Run) and the processes are coroutines of one
// another — an event resumes a process, which runs until it blocks (and
// then fires the callbacks due before its wake-up: Proc.block) or finishes
// — so exactly one runs at any moment, and nothing above the kernel locks.
//
// The queue (event.go) keeps future events in buckets of one instant each,
// ordered by a heap of pointer-free keys, and the current instant's events
// on a FIFO in front of it; the clock moves only when that FIFO is empty,
// and then every bucket due at the new instant joins it.
type World struct {
	now   Time
	queue eventQueue
	seq   uint64

	cur     *Proc  // process currently executing, nil in scheduler context
	reraise func() // a callback's panic that block stopped, for runProc

	live    int     // spawned processes that have not finished
	waiting []*Proc // parked processes (for deadlock reports)

	stopped bool
	bounded bool // inside RunUntil: events due after limit stay queued
	limit   Time

	work *Work // where the world counts its work, nil when it does not (work.go)
}

// NewWorld returns an empty world with the clock at zero.
func NewWorld() *World {
	return &World{}
}

// Now reports the current virtual time.
func (w *World) Now() Time { return w.now }

// At schedules fn to run at virtual time t (clamped to now if in the past).
// fn runs in scheduler context: it may schedule further events, signal
// conditions and complete requests, but it must not block.
func (w *World) At(t Time, fn func()) {
	w.seq++
	w.queue.push(w.now, t, w.seq, fn, 0, w.work)
}

// atProc schedules p's wake-up at t: Spawn's first step, Unpark, Sleep.
func (w *World) atProc(t Time, p *Proc) {
	w.seq++
	p.wake = w.queue.push(w.now, t, w.seq, p.runFn, wakeBit, w.work)
}

// After schedules fn to run d from now. Negative d means now; a d that
// would carry past the largest Time means the end of time.
func (w *World) After(d Time, fn func()) { w.At(w.after(d), fn) }

// after is the instant d from now, saturated at the end of time: now+d
// past the largest Time would wrap negative and be clamped to now.
func (w *World) after(d Time) Time {
	if d > math.MaxInt64-w.now {
		return math.MaxInt64
	}
	return w.now + d
}

// Events reports how many events have been scheduled so far: a count of
// the work a run gave the scheduler (a wake-up is one, including a Sleep
// that returned in place) that is the same on any machine.
func (w *World) Events() uint64 { return w.seq }

// Stop makes Run return after the event currently firing.
func (w *World) Stop() { w.stopped = true }

// DeadlockError reports that every live process is blocked with no event
// left that could wake any of them.
type DeadlockError struct {
	Now     Time
	Blocked []string // names of the blocked processes
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: %d process(es) blocked forever: %v",
		e.Now, len(e.Blocked), e.Blocked)
}

// Run drives the simulation until the event queue drains, Stop is called,
// or the horizon set by RunUntil passes. It returns a *DeadlockError if
// processes remain blocked when no event can ever wake them, nil otherwise.
func (w *World) Run() error {
	w.stopped = false
	for w.ready() {
		var fn func()
		w.now, fn = w.queue.pop(w.now)
		fn()
	}
	if !w.stopped && !w.queue.empty() {
		// Past the horizon: leave the event unfired for a later Run,
		// and never move the clock backwards.
		w.now = max(w.now, w.limit)
	} else if w.queue.empty() && w.live > 0 {
		return w.deadlock()
	}
	return nil
}

// ready reports whether Run would fire the next event now.
func (w *World) ready() bool {
	return !w.stopped && !w.queue.empty() && (!w.bounded || w.queue.nextAt(w.now) <= w.limit)
}

// RunUntil drives the simulation, stopping once the clock would pass t.
// Events scheduled later than t stay queued for a subsequent Run/RunUntil,
// and the clock is left at t. A horizon at or before Now fires nothing due
// after it and leaves the clock where it is.
func (w *World) RunUntil(t Time) error {
	w.bounded, w.limit = true, t
	defer func() { w.bounded = false }()
	return w.Run()
}

func (w *World) deadlock() error {
	names := make([]string, 0, len(w.waiting))
	for _, p := range w.waiting {
		names = append(names, p.name)
	}
	sort.Strings(names)
	return &DeadlockError{Now: w.now, Blocked: names}
}

// runProc transfers control to p until it blocks or finishes. Must be
// called from scheduler context only (i.e. from inside an event). cur is
// cleared in a defer because next does not always return: it re-raises a
// process's panic or Goexit here, in the goroutine running the world (see
// Spawn) or of a callback p fired, and a caller that recovers must find
// the world consistent.
func (w *World) runProc(p *Proc) {
	if w.cur != nil {
		panic("sim: runProc while another process is running")
	}
	w.cur, p.wake = p, 0
	w.work.add(cResumes, 1)
	defer func() { w.cur = nil }()
	p.next()
	if w.reraise != nil {
		w.reraise()
	}
}
