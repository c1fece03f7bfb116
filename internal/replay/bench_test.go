package replay

import (
	"runtime"
	"testing"

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

// Run is event-driven: it must start no goroutine (a simulated process
// is one), and what it allocates per recorded op — request, wrapper
// bookkeeping, tracer events, the op's two closures and its segment
// slice — stays under a ceiling that a process per op (fourteen
// allocations for the process alone) or a payload buffer per op cannot
// meet.
func TestRunSpawnsNothingAndAllocatesLittle(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	rec := recordRing(t, 64)
	replay := func() {
		if _, err := Run(rec, Config{}); err != nil {
			t.Fatal(err)
		}
	}
	// Only growth counts: the live recording's last processes may still
	// be unwinding their goroutines when the first sample is taken.
	before := runtime.NumGoroutine()
	perOp := testing.AllocsPerRun(3, replay) / float64(rec.Len())
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("Run left %d goroutines behind", after-before)
	}
	t.Logf("%.2f allocs per recorded op", perOp)
	const ceiling = 13
	if perOp > ceiling {
		t.Errorf("Run allocates %.2f per recorded op, ceiling %d", perOp, ceiling)
	}
}
