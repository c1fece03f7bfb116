package sim

// Proc is a cooperative simulated process. Application-level code (MPI
// ranks, benchmark drivers, example programs) runs inside processes so it
// can block — on time with Sleep, or on state with Park — while the
// engine underneath runs in event callbacks.
//
// Exactly one process executes at a time; a process runs until it blocks
// or returns, so plain Go code inside a process needs no synchronization.
type Proc struct {
	w      *World
	name   string
	resume chan struct{}
	// runFn is the one resume closure the process ever needs: every
	// wake-up — Sleep timers, Unpark, the first step — schedules this
	// same function instead of allocating a fresh closure per blocking
	// call. Sleeps and waits are the hottest operations of a large replay,
	// so the saving is per-op, not per-process.
	runFn func()
	// waitIdx is the process's slot in World.waiting while parked, -1
	// otherwise (see Park / Unpark).
	waitIdx int
}

// Spawn creates a process executing fn and schedules its first step at the
// current virtual time. fn receives the process itself for blocking calls.
func (w *World) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{w: w, name: name, resume: make(chan struct{}), waitIdx: -1}
	p.runFn = func() { w.runProc(p) }
	w.live++
	go func() {
		<-p.resume // wait for the scheduler to give us our first step
		// Deferred so a process that ends through runtime.Goexit (a
		// t.Fatal inside fn) still hands control back; otherwise Run
		// would wait on yield forever.
		defer func() {
			w.live--
			w.yield <- struct{}{}
		}()
		fn(p)
	}()
	w.At(w.now, p.runFn)
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
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.w.After(d, p.runFn)
	p.block()
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
//
// A parked process nothing unparks is named in Run's DeadlockError.
func (p *Proc) Park() {
	p.waitIdx = len(p.w.waiting)
	p.w.waiting = append(p.w.waiting, p)
	p.block()
}

// Unpark resumes p at the current instant — as an event of its own, once
// the caller has yielded — if p is parked, and does nothing otherwise (a
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
	w.At(w.now, p.runFn)
}

// block hands control back to the scheduler. Something must eventually
// call w.runProc(p) (a Sleep timer, or Unpark) or the process is dead;
// the kernel then reports a deadlock.
func (p *Proc) block() {
	if p.w.cur != p {
		panic("sim: blocking call from the wrong context (process " + p.name + " is not running)")
	}
	p.w.yield <- struct{}{}
	<-p.resume
}
