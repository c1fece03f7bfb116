// Package sim stands in for the kernel: the one package that may declare
// and use Cond, and one where a goroutine or a channel is a finding.
package sim

// World is a simulation.
type World struct{}

// Proc is a simulated process.
type Proc struct {
	inbox chan int // want "a second way to switch processes"
}

func (p *Proc) run() {}

// Cond may live here.
type Cond struct{ waiters []*Proc }

// NewCond returns a condition variable.
func NewCond(w *World) *Cond { return &Cond{} }

// Start hands the process to a goroutine and a channel: every form is a
// finding, the ones a line-based "chan " or "go func" search misses too.
func (p *Proc) Start(c *Cond) {
	go p.run()                  // want "a second way to switch processes"
	go func() {}()              // want "a second way to switch processes"
	done := make(chan struct{}) // want "a second way to switch processes"
	var out chan<- int          // want "a second way to switch processes"
	var in <-chan int           // want "a second way to switch processes"
	_, _, _ = done, out, in
	_ = NewCond(nil)
	// Not a go statement: "go p.run()" in a string, and this comment.
	_ = "go p.run(); chan int"
}

// feed takes a channel.
func feed(ch chan int) {} // want "a second way to switch processes"
