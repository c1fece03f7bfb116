package sim

// Group runs a set of cooperating processes as one unit of work: the
// first error any of them returns is the result of the run, and End is
// when the last of them finished. Workload drivers use it in place of a
// private error collector and finish-time tracker around Spawn.
type Group struct {
	w   *World
	err error
	end Time
}

// NewGroup returns an empty group of processes in w.
func NewGroup(w *World) *Group { return &Group{w: w} }

// Go spawns fn exactly as World.Spawn would — same name, same single
// start event — and records its error and its finish instant.
func (g *Group) Go(name string, fn func(p *Proc) error) {
	g.w.Spawn(name, func(p *Proc) {
		g.fail(fn(p))
		g.end = p.Now() // the clock never runs backwards: the last write is the latest
	})
}

// fail records err as the group's result unless it is nil or an earlier
// error already is.
func (g *Group) fail(err error) {
	if g.err == nil {
		g.err = err
	}
}

// Run drives the world and returns the group's first error. A process
// that returns early usually strands its peers, so the world reports a
// deadlock as well; the process error is the cause and wins. A deadlock
// with no process error behind it comes back as *DeadlockError.
func (g *Group) Run() error {
	err := g.w.Run()
	if g.err != nil {
		return g.err
	}
	return err
}

// End reports when the last process to finish so far did.
func (g *Group) End() Time { return g.end }
