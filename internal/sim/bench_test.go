package sim

import "testing"

// The kernel's three process costs, readable without the benchmark/
// module: go test -run=NONE -bench . ./internal/sim

// BenchmarkSwitch is one block-and-resume: a timer event, out of the
// process, back in.
func BenchmarkSwitch(b *testing.B) {
	b.ReportAllocs()
	yieldLoop(b, b.N)
}

// BenchmarkParkUnpark is one wake-up on state: the waker yields, unparks
// the waiter, and the waiter runs and parks again — two switches.
func BenchmarkParkUnpark(b *testing.B) {
	b.ReportAllocs()
	wakeLoop(b, b.N, (*Proc).Park, (*Proc).Unpark)
}

// BenchmarkSpawn is a process's whole life with nothing in it: Spawn, the
// first step, the return. Its allocations are the coroutine's.
func BenchmarkSpawn(b *testing.B) {
	w := NewWorld()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Spawn("short-lived", func(p *Proc) {})
		mustRun(b, w)
	}
}
