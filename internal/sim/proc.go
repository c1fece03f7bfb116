package sim

// Proc is a cooperative simulated process. Application-level code (MPI
// ranks, benchmark drivers, example programs) runs inside processes so it
// can block — on time with Sleep, or on state with Cond.Wait — while the
// engine underneath runs in event callbacks.
//
// Exactly one process executes at a time; a process runs until it blocks
// or returns, so plain Go code inside a process needs no synchronization.
type Proc struct {
	w      *World
	name   string
	resume chan struct{}
	// runFn is the one resume closure the process ever needs: every
	// wake-up — Sleep timers, Cond wakes, the first step — schedules this
	// same function instead of allocating a fresh closure per blocking
	// call. Sleeps and waits are the hottest operations of a large replay,
	// so the saving is per-op, not per-process.
	runFn func()
	// waitIdx is the process's slot in World.waiting while blocked on a
	// Cond, -1 otherwise (see Cond.Wait / World.unwait).
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

// block parks the process and returns control to the scheduler. Something
// must eventually call w.runProc(p) (a timer event, or a Cond wake) or the
// process is dead; the kernel then reports a deadlock.
func (p *Proc) block() {
	if p.w.cur != p {
		panic("sim: blocking call from the wrong context (process " + p.name + " is not running)")
	}
	p.w.yield <- struct{}{}
	<-p.resume
}
