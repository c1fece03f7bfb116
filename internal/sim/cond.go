package sim

import "slices"

// Cond is a condition variable for simulated processes: a list of
// waiters over Proc.Park and Proc.Unpark. As with sync.Cond, waiters
// re-check their predicate in a loop:
//
//	for !ready {
//		cond.Wait(p)
//	}
//
// Signal may be called from scheduler context (event callbacks) or from
// another process; wake-ups are delivered as immediate events, preserving
// the one-runnable-at-a-time invariant.
type Cond struct {
	waiters []*Proc
}

// NewCond returns a condition variable for the processes of w.
func NewCond(w *World) *Cond { return &Cond{} }

// Wait blocks p until a Signal takes it off the list; a spurious wake-up
// (see Proc.Park) parks it again.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	for slices.Contains(c.waiters, p) {
		p.Park()
	}
}

// Signal wakes the longest-waiting process, if any.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	p := c.waiters[0]
	c.waiters = slices.Delete(c.waiters, 0, 1)
	p.Unpark()
}
