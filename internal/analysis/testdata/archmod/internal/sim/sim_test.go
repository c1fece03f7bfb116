package sim

import "testing"

// A test of the kernel may start goroutines and use its own Cond.
func TestCond(t *testing.T) {
	c := NewCond(nil)
	done := make(chan struct{})
	go func() { close(done) }()
	<-done
	_ = c
}
