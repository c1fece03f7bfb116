package replay

import (
	"runtime"
	"testing"

	"nmad/internal/sim"
	"nmad/internal/trace"
)

// recordRing records the composite ring the host-cost measurements
// replay (RingConfig).
func recordRing(tb testing.TB, nodes int) *trace.Recording {
	tb.Helper()
	rec, err := RecordCompositeRing(RingConfig(), nodes)
	if err != nil {
		tb.Fatal(err)
	}
	return rec
}

// BenchmarkRun is the harness's own cost: one Run of a 256-node ring per
// iteration, engines, tracers and the simulated fabric included.
//
//	go test -run=NONE -bench='BenchmarkRun$' -cpuprofile cpu.out ./internal/replay
func BenchmarkRun(b *testing.B) {
	rec := recordRing(b, 256)
	b.ReportAllocs()
	for b.Loop() {
		res, err := Run(rec, Config{})
		if err != nil {
			b.Fatal(err)
		}
		if res.RequestErrors != 0 {
			b.Fatalf("%d request errors", res.RequestErrors)
		}
	}
	b.ReportMetric(float64(rec.Len())*float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}

// BenchmarkRecordCompositeRing is the set-up the ring replays need: one
// live recording of a 256-node ring per iteration.
//
//	go test -run=NONE -bench='BenchmarkRecordCompositeRing$' -benchmem ./internal/replay
func BenchmarkRecordCompositeRing(b *testing.B) {
	b.ReportAllocs()
	var ops int
	for b.Loop() {
		ops = recordRing(b, 256).Len()
	}
	b.ReportMetric(float64(ops)*float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}

// A live recording costs what its engines do: the composite sends from
// one zero buffer and receives into one sink, the op log grows in chunks
// it never copies, and the engine's record path hands over its segment
// lengths from the stack. Measured like the engine pins: the difference
// between recording a 256-node ring and a 64-node one, per extra op, so
// fixed costs cancel out. Measured 6.7 objects and 1.2 KB per op (8.7
// and 4.3 KB before): a payload per op comes back as about 2.6 KB more,
// a lengths slice per op as one object more.
func TestRecordCompositeRingAllocatesLittle(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	record := func(nodes int) (objs, heap uint64, ops int) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		ops = recordRing(t, nodes).Len()
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc, ops
	}
	record(64) // warm lazy runtime and package init paths
	o1, b1, n1 := record(64)
	o2, b2, n2 := record(256)
	extra := float64(n2 - n1)
	objs, size := float64(o2-o1)/extra, float64(b2-b1)/extra
	t.Logf("%.2f objects and %.0f bytes per recorded op", objs, size)
	const objCeiling, byteCeiling = 7.6, 2700
	if objs > objCeiling {
		t.Errorf("recording allocates %.2f objects per op, ceiling %.1f", objs, objCeiling)
	}
	if size > byteCeiling {
		t.Errorf("recording allocates %.0f bytes per op, ceiling %d", size, byteCeiling)
	}
}

// repeatGolden is the golden recording's load n times over, each
// repetition starting once the previous one has drained: the same op mix
// on engines that have already carried it.
func repeatGolden(t *testing.T, n int) *trace.Recording {
	t.Helper()
	golden := loadGolden(t)
	res, err := Run(golden, Config{})
	if err != nil {
		t.Fatal(err)
	}
	period := res.Completion + sim.Microsecond
	var ops []trace.Op
	for k := range n {
		for _, op := range golden.Ops() {
			op.At += sim.Time(k) * period
			ops = append(ops, op)
		}
	}
	return goldenWithOps(t, ops...)
}

// Run is event-driven: it must start no goroutine (a simulated process
// is one), and per recorded op it allocates next to nothing — no engine
// request, closure, segment list or completion record of its own (a
// process per op costs fourteen allocations for the process alone).
// Measured like the engine pins: the difference between replaying the
// golden load eight times and twice, per extra op, so world, engine and
// tracer construction cancel out.
func TestRunSpawnsNothingAndAllocatesLittle(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	short, long := repeatGolden(t, 2), repeatGolden(t, 8)
	replay := func(rec *trace.Recording) func() {
		return func() {
			res, err := Run(rec, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if res.RequestErrors != 0 {
				t.Fatalf("%d request errors", res.RequestErrors)
			}
		}
	}
	// Only growth counts: the live recording's last processes may still
	// be unwinding their goroutines when the first sample is taken.
	before := runtime.NumGoroutine()
	replay(short)()
	a1 := testing.AllocsPerRun(5, replay(short))
	a2 := testing.AllocsPerRun(5, replay(long))
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("Run left %d goroutines behind", after-before)
	}
	perOp := (a2 - a1) / float64(long.Len()-short.Len())
	t.Logf("%.2f allocs per recorded op", perOp)
	// Measured 0.05: the tracer's event slice growing. An op's request is
	// a slot of the run's send or receive slab, so a request allocated
	// per op again reads 1.05.
	const ceiling = 0.3
	if perOp > ceiling {
		t.Errorf("Run allocates %.2f per recorded op, ceiling %.1f", perOp, ceiling)
	}
}

// The warm-up-inclusive twin of TestRunSpawnsNothingAndAllocatesLittle,
// which subtracts construction out: what one whole Run of a 256-node ring
// allocates per recorded op, engines warming their pools included. A
// ring's allocation is nearly all warm-up, so this is where a cut to it
// shows. Measured 4.56 objects and 1 339 bytes per op; each of the cuts
// that brought it there, undone alone, reads: frames looked up in their
// exact size class only, 4.67 and 1 372 (each node's five frame sizes
// make five frames, not three); an Events copy per tracer, 4.59 and
// 1 467; per-node op lists grown by append, 4.75 and 1 357.
func TestRunWholeAllocatesLittle(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	rec := recordRing(t, 256)
	run := func() {
		res, err := Run(rec, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if res.RequestErrors != 0 {
			t.Fatalf("%d request errors", res.RequestErrors)
		}
	}
	run() // warm lazy runtime and package init paths
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	run()
	runtime.ReadMemStats(&m1)
	ops := float64(rec.Len())
	objs, size := float64(m1.Mallocs-m0.Mallocs)/ops, float64(m1.TotalAlloc-m0.TotalAlloc)/ops
	t.Logf("%.2f objects and %.0f bytes per recorded op", objs, size)
	const objCeiling, byteCeiling = 4.62, 1365
	if objs > objCeiling {
		t.Errorf("a whole Run allocates %.2f objects per op, ceiling %.2f", objs, objCeiling)
	}
	if size > byteCeiling {
		t.Errorf("a whole Run allocates %.0f bytes per op, ceiling %d", size, byteCeiling)
	}
}
