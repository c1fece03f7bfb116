package sim

import "testing"

// The kernel's process costs, readable without the benchmark/ module:
// go test -run=NONE -bench . ./internal/sim

// BenchmarkSwitch is one block-and-resume: a timer event, out of the
// process, back in. Two processes take turns, so no Sleep returns in
// place.
func BenchmarkSwitch(b *testing.B) {
	b.ReportAllocs()
	yieldLoop(b, b.N)
}

// BenchmarkSleepInPlace is a Sleep whose wake-up is the next event: a
// lone process, so the clock moves with no event queued and no switch.
func BenchmarkSleepInPlace(b *testing.B) {
	w := NewWorld()
	b.ReportAllocs()
	w.Spawn("lone", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	mustRun(b, w)
}

// BenchmarkParkUnpark is one wake-up on state: the waker yields, unparks
// the waiter, and the waiter runs and parks again — two switches, since
// each wakes the other process.
func BenchmarkParkUnpark(b *testing.B) {
	b.ReportAllocs()
	wakeLoop(b, b.N, (*Proc).Park, (*Proc).Unpark)
}

// BenchmarkParkSelfWake is a wait that the process's own traffic ends: it
// parks, and a chain of three plain events unparks it. It fires them on
// its own stack and returns in place, so no switch.
func BenchmarkParkSelfWake(b *testing.B) {
	b.ReportAllocs()
	selfWakeLoop(b, b.N)
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

// The event queue's three costs. Each op is one event fired and the next
// one scheduled (benchmark/layers.go's simEvents).

// BenchmarkEventShallow is a chain of future events alone in the queue.
func BenchmarkEventShallow(b *testing.B) {
	b.ReportAllocs()
	eventChain(b, 0, 1)
}

// BenchmarkEventDeep is the same chain with 1 000 000 later events queued
// the whole time: the heap's depth is what it measures.
func BenchmarkEventDeep(b *testing.B) {
	b.ReportAllocs()
	eventChain(b, 1_000_000, 1)
}

// BenchmarkEventSameInstant is a chain of events each scheduled for the
// current instant, the FIFO in front of the heap.
func BenchmarkEventSameInstant(b *testing.B) {
	b.ReportAllocs()
	eventChain(b, 0, 0)
}

// BenchmarkEventFewInstants is the replayed ring's shape: 1 024 chains of
// 14 events, so 14 336 are pending, each event rescheduling itself at one
// of three shared offsets — thousands of events on each of a handful of
// instants.
func BenchmarkEventFewInstants(b *testing.B) {
	w := NewWorld()
	offsets := [...]Time{10, 20, 30}
	left := b.N
	for i := range 1024 * 14 {
		hop := i
		var next func()
		next = func() {
			if left--; left == 0 {
				w.Stop()
				return
			}
			hop++
			w.After(offsets[hop%len(offsets)], next)
		}
		w.At(offsets[hop%len(offsets)], next)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := w.Run(); err != nil {
		b.Fatal(err)
	}
}

// eventChain fires b.N events, each scheduling the next step later, with
// depth other events waiting behind them.
func eventChain(b *testing.B, depth int, step Time) {
	w := NewWorld()
	nop := func() {}
	for i := 0; i < depth; i++ {
		w.At(Second+Time(i), nop)
	}
	left := b.N
	var next func()
	next = func() {
		if left--; left == 0 {
			w.Stop()
			return
		}
		w.After(step, next)
	}
	w.After(step, next)
	b.ResetTimer()
	if err := w.Run(); err != nil {
		b.Fatal(err)
	}
}
