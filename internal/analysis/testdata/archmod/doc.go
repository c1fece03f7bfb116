// Package archmod is the module's root package: the completion-path row
// covers it like any other package outside internal/sim.
package archmod

import "archmod/internal/sim"

// Waiter keeps a condition variable outside the kernel.
type Waiter struct {
	c *sim.Cond // want "a second notification path"
}

// NewWaiter is the same rule through the constructor; a comment that says
// sim.NewCond is not a use.
func NewWaiter(w *sim.World) *Waiter {
	return &Waiter{c: sim.NewCond(w)} // want "a second notification path"
}
