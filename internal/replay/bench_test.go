package replay

import (
	"runtime"
	"testing"

	"nmad/internal/sim"
	"nmad/internal/trace"
)

// recordRing records the composite ring the host-cost measurements
// replay: the canonical op mix with byte counts slimmed so the ring, not
// the payload, is what scales.
func recordRing(tb testing.TB, nodes int) *trace.Recording {
	tb.Helper()
	cfg := CanonicalConfig()
	cfg.Bulk = 2 << 10
	cfg.NBulk = 8
	cfg.Large = 32 << 10
	rec, err := RecordCompositeRing(cfg, nodes)
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
// process per op costs fourteen allocations for the process alone). Measured like the engine pins: the difference between
// replaying the golden load eight times and twice, per extra op, so
// world, engine and tracer construction cancel out.
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
