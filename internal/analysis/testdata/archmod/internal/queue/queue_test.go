package queue

import "testing"

// A test may panic.
func TestSubmit(t *testing.T) {
	defer func() { recover() }()
	panic("boom")
}
