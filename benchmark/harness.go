package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"time"

	"nmad/internal/sim"
)

// metric is one named measurement of a run.
type metric struct {
	name  string
	value float64
	unit  string
}

// runConfig is what the command line selects for one workload run.
type runConfig struct {
	seed    uint64
	seconds float64 // how long the timed loop measures
	reps    int     // fixed repetition count; 0 fills seconds
	scale   float64 // shrinks every repetition; 1 outside the tests
	trace   bool
	spans   string // where the traced run writes its span dump
}

const (
	// The end-to-end run sets the workload up (inputs, machine, warm-up
	// repetition) at least minSetups times, and keeps going while that
	// took less than setupBudget, up to maxSetups; setup_s is the median,
	// scaled by the calibration runs in between.
	minSetups   = 5
	maxSetups   = 15
	setupBudget = 2 * time.Second
	// minReps keeps the medians meaningful on a machine so slow that
	// fewer repetitions would fit in the measuring time.
	minReps = 3
	// tracedReps is how many untraced/traced repetition pairs the traced
	// run compares for trace_overhead_rel.
	tracedReps = 3
)

// outcome is everything one run of one workload produced.
type outcome struct {
	workload  string
	attempted int
	failed    int
	metrics   []metric
	notes     []string // sample counts, quartiles: printed, not scored
}

func (o *outcome) add(name string, value float64, unit string) {
	o.metrics = append(o.metrics, metric{name, value, unit})
}

// timedRep is the host-side measurement of one repetition.
type timedRep struct {
	wall       time.Duration
	allocs     float64 // mallocs per op
	allocBytes float64 // bytes allocated per op
	gcCycles   uint32
	heapPeak   uint64
}

// bench measures repetitions of one prepared workload against the
// calibration kernel, accumulating attempts and failures.
type bench struct {
	cal       *calibrator
	prevCalib time.Duration
	calibs    []time.Duration
	attempted int
	failed    int
	firstErr  error
}

func newBench(scale float64) *bench {
	b := &bench{cal: newCalibrator(scale)}
	b.cal.run() // page the buffers in
	return b
}

// account folds one repetition's operations into the run totals. A
// repetition that returned an error failed as a whole.
func (b *bench) account(res repResult, err error) {
	b.attempted += res.ops
	if err != nil {
		b.failed += max(res.failed, 1)
		if b.firstErr == nil {
			b.firstErr = err
		}
		return
	}
	b.failed += res.failed
}

// rep runs one timed repetition with a calibration run on either side
// (the one before is the previous repetition's, when there was one).
func (b *bench) rep(run runner, o repOpts) (timedRep, repResult) {
	if len(b.calibs) == 0 {
		b.calibs = append(b.calibs, b.cal.run())
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	res, err := run(o)
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	b.calibs = append(b.calibs, b.cal.run())
	b.account(res, err)
	ops := float64(max(res.ops, 1))
	tr := timedRep{
		wall:       wall,
		allocs:     float64(m1.Mallocs-m0.Mallocs) / ops,
		allocBytes: float64(m1.TotalAlloc-m0.TotalAlloc) / ops,
		gcCycles:   m1.NumGC - m0.NumGC,
		heapPeak:   m1.HeapSys,
	}
	return tr, res
}

// hostCostRel is the fastest repetition over the fastest calibration
// run. On a shared machine interference only ever adds time, in bursts
// that hit the simulator harder than the kernel, so the floor of each
// series is what repeats from run to run (3-5% here, against 5-12% for
// the median of per-repetition ratios); with a calibration run between
// every two repetitions both floors are sampled over the same seconds.
func hostCostRel(reps []timedRep, calibs []time.Duration) float64 {
	return float64(fastest(reps)) / float64(slices.Min(calibs))
}

func fastest(reps []timedRep) time.Duration {
	best := reps[0].wall
	for _, r := range reps[1:] {
		best = min(best, r.wall)
	}
	return best
}

// moreSetups decides whether to set the workload up once more. A traced
// run does not report setup_s and sets up once.
func moreSetups(done int, spent time.Duration, traced bool) bool {
	if traced {
		return done == 0
	}
	return done < minSetups || done < maxSetups && spent < setupBudget
}

// sameVirtual reports whether a repetition reproduced the warm-up's
// virtual outcome; anything else is a determinism failure.
func sameVirtual(a, b repResult) bool {
	return a.completion == b.completion && a.payload == b.payload &&
		a.stats.WireBytes == b.stats.WireBytes && a.ops == b.ops
}

// runWorkload measures one workload and returns its metrics: the
// end-to-end set, or with cfg.trace the per-layer set.
func runWorkload(wl workload, cfg runConfig) (*outcome, error) {
	// A sim.World is single-threaded by construction; a second P only
	// adds cross-thread wake-ups between the scheduler goroutine and the
	// process goroutines, and with them noise.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	b := newBench(cfg.scale)
	out := &outcome{workload: wl.name}
	var log *spanLog
	if cfg.trace {
		log = newSpanLog()
		log.begin("run:" + wl.name)
	}

	// Set-up: generate the inputs and run one untimed repetition that
	// builds the machine, fills the engine's free lists and verifies
	// every payload byte. A calibration run sits before each set-up and
	// after the last.
	var setup, setupCalib []float64
	var run runner
	var warm repResult
	for start := time.Now(); moreSetups(len(setup), time.Since(start), cfg.trace); {
		setupCalib = append(setupCalib, b.cal.run().Seconds())
		log.begin("setup")
		t0 := time.Now()
		var err error
		log.begin("prepare")
		run, err = wl.prepare(cfg.seed, cfg.scale)
		log.end()
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", wl.name, err)
		}
		log.begin("warm-up")
		warm, err = run(repOpts{full: true, spans: log})
		log.end()
		setup = append(setup, time.Since(t0).Seconds())
		log.end()
		b.account(warm, err)
		if err != nil {
			return nil, fmt.Errorf("%s: warm-up: %w", wl.name, err)
		}
	}

	setupCalib = append(setupCalib, b.cal.run().Seconds())

	if cfg.trace {
		err := tracedRun(wl, cfg, b, run, warm, log, out)
		out.attempted, out.failed = b.attempted, b.failed
		return out, err
	}

	var reps []timedRep
	start := time.Now()
	for len(reps) < cfg.reps || cfg.reps == 0 &&
		(len(reps) < minReps || time.Since(start).Seconds() < cfg.seconds) {
		tr, res := b.rep(run, repOpts{})
		if !sameVirtual(res, warm) {
			b.failed++
		}
		reps = append(reps, tr)
	}

	// Raw seconds would report the runner: a machine that slows by 40%
	// for a few minutes, as shared ones do, moves them by 40%.
	out.add("setup_s", median(setup)/median(setupCalib)*calibNominal.Seconds(), "s")
	out.add("host_cost_rel", hostCostRel(reps, b.calibs), "ratio")
	out.add("host_allocs_per_op", median(column(reps, func(r timedRep) float64 { return r.allocs })), "1/op")
	out.add("host_alloc_bytes_per_op", median(column(reps, func(r timedRep) float64 { return r.allocBytes })), "B/op")
	virtualMetrics(out, warm)
	w1, w2, w3 := quartiles(column(reps, func(r timedRep) float64 { return 1e3 * r.wall.Seconds() }))
	c1, c2, c3 := quartiles(column(b.calibs, func(d time.Duration) float64 { return 1e3 * d.Seconds() }))
	out.notes = append(out.notes,
		"GOMAXPROCS=1 while measuring",
		fmt.Sprintf("host_cost_rel: fastest of %d repetitions %.2f ms (quartiles %.2f %.2f %.2f) over fastest of %d calibration runs %.2f ms (quartiles %.2f %.2f %.2f)",
			len(reps), 1e3*fastest(reps).Seconds(), w1, w2, w3, len(b.calibs), 1e3*slices.Min(b.calibs).Seconds(), c1, c2, c3),
		fmt.Sprintf("harness.wall_ops_per_s=%.0f (raw median, not scored)", 1e3*float64(warm.ops)/w2),
		fmt.Sprintf("setup_s: median of %d set-ups %.4f s wall over median of %d calibration runs %.2f ms, times %v",
			len(setup), median(setup), len(setupCalib), 1e3*median(setupCalib), calibNominal),
		fmt.Sprintf("virt_lat_*: %d samples", len(warm.lat)))
	out.attempted, out.failed = b.attempted, b.failed
	return out, b.firstErr
}

// virtualMetrics derives the virtual-time end-to-end metrics from one
// repetition (they are identical on every repetition).
func virtualMetrics(out *outcome, r repResult) {
	us := r.completion.Microseconds()
	lat := sortedMicros(r.lat)
	out.add("virt_completion_us", us, "us_virt")
	out.add("virt_lat_p50_us", quantile(lat, 0.50), "us_virt")
	out.add("virt_lat_p99_us", quantile(lat, 0.99), "us_virt")
	out.add("virt_goodput_MBps", float64(r.payload)/us, "MB/s_virt")
	out.add("wire_efficiency", float64(r.payload)/float64(r.stats.WireBytes), "ratio")
}

func column[T any](rows []T, f func(T) float64) []float64 {
	out := make([]float64, len(rows))
	for i, r := range rows {
		out[i] = f(r)
	}
	return out
}

func sortedMicros(ts []sim.Time) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = t.Microseconds()
	}
	sort.Float64s(out)
	return out
}

// quantile is the nearest-rank quantile of an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	_, q2, _ := quartiles(v)
	return q2
}

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(v, n=4) gives them (the exclusive
// method), the rule the benchmark is accepted by.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the distance between the first and third quartile as a
// share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	return (q3 - q1) / q2
}
