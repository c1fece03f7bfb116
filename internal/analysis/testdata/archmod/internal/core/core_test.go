package core

import (
	"testing"

	"archmod/internal/sim"
	kernel "archmod/internal/sim"
)

// Test files are in the completion-path row: each use is a finding, under
// any import name; a comment naming sim.Cond or sim.NewCond is not.
func TestCond(t *testing.T) {
	c := sim.NewCond(nil)  // want "a second notification path"
	var d *kernel.Cond = c // want "a second notification path"
	_ = d
	_ = "sim.NewCond(nil)"
	go func() {}()
}
