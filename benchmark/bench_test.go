package main

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"nmad/internal/sim"
	"nmad/internal/trace"
)

// testScale runs every workload at about 1/100 of the benchmark's size:
// small enough for the race detector, large enough to cross every path
// (rendezvous, retransmission, aggregation, the job queue).
const testScale = 0.01

func mustSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// checkNames fails unless the run emitted exactly the declared metrics,
// each with its declared unit.
func checkNames(t *testing.T, out *outcome, declared []specMetric) {
	t.Helper()
	got := map[string]string{}
	for _, m := range out.metrics {
		if _, dup := got[m.name]; dup {
			t.Errorf("%s: metric %s emitted twice", out.workload, m.name)
		}
		got[m.name] = m.unit
	}
	for _, d := range declared {
		unit, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: declared metric %s not emitted", out.workload, d.Name)
		case unit != d.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", out.workload, d.Name, unit, d.Unit)
		}
		delete(got, d.Name)
	}
	for name := range got {
		t.Errorf("%s: emitted metric %s is not declared in BENCHMARK.json", out.workload, name)
	}
}

func TestWorkloadsMatchSpec(t *testing.T) {
	sp := mustSpec(t)
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the driver has %d", len(sp.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if sp.Workloads[i].Name != wl.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the driver %q", i, sp.Workloads[i].Name, wl.name)
		}
	}
}

// TestEndToEndRuns runs all six workloads twice in one process and
// holds the runs to the benchmark's own promises: no failed operation,
// exactly the declared metrics, no end-to-end metric at zero, and
// bit-identical virtual results.
func TestEndToEndRuns(t *testing.T) {
	sp := mustSpec(t)
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			cfg := runConfig{seed: 7, reps: 2, scale: testScale}
			var runs [2]*outcome
			for i := range runs {
				out, err := runWorkload(wl, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if out.failed != 0 || out.attempted == 0 {
					t.Fatalf("%d of %d operations failed", out.failed, out.attempted)
				}
				runs[i] = out
			}
			checkNames(t, runs[0], sp.EndToEnd)
			for i, m := range runs[0].metrics {
				if m.value == 0 || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
					t.Errorf("%s = %v", m.name, m.value)
				}
				virtual := strings.HasPrefix(m.name, "virt_") || m.name == "wire_efficiency"
				if again := runs[1].metrics[i]; virtual && again.value != m.value {
					t.Errorf("%s differs between two runs of the same seed: %v then %v", m.name, m.value, again.value)
				}
			}
		})
	}
}

// TestTracedRuns checks the per-layer side on the workloads that reach
// every source of per-layer numbers: stage times (pingpong), NIC and
// fault counters (incast) and a workload that hides both (the replay).
func TestTracedRuns(t *testing.T) {
	sp := mustSpec(t)
	for name, scale := range map[string]float64{
		"pingpong-64B": testScale,
		// Enough packets for the 1% loss to drop some.
		"incast-16to1-lossy": 10 * testScale,
		"ring-replay-1024":   testScale,
	} {
		t.Run(name, func(t *testing.T) {
			wl, _ := findWorkload(name)
			dump := filepath.Join(t.TempDir(), "spans.json")
			out, err := runWorkload(wl, runConfig{seed: 7, scale: scale, trace: true, spans: dump})
			if err != nil {
				t.Fatal(err)
			}
			if out.failed != 0 {
				t.Fatalf("%d of %d operations failed", out.failed, out.attempted)
			}
			checkNames(t, out, sp.PerLayer)
			if info, err := os.Stat(dump); err != nil || info.Size() == 0 {
				t.Errorf("span dump not written: %v", err)
			}
			value := func(metric string) float64 {
				for _, m := range out.metrics {
					if m.name == metric {
						return m.value
					}
				}
				return math.NaN()
			}
			switch name {
			case "pingpong-64B":
				if v := value("simnet.virt_wire_us_p50"); !(v > 0) {
					t.Errorf("simnet.virt_wire_us_p50 = %v, want a wire time", v)
				}
			case "incast-16to1-lossy":
				if v := value("simnet.fault_dropped"); !(v > 0) {
					t.Errorf("simnet.fault_dropped = %v on a lossy fabric", v)
				}
			}
		})
	}
}

func TestRingRecordingSize(t *testing.T) {
	rec, err := recordRing(ringNodes)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Len(); got != 38_912 {
		t.Errorf("the 1024-node composite ring has %d ops, want 38912", got)
	}
}

// TestSpread pins the quartile rule to the one the benchmark is
// accepted by: Python's statistics.quantiles(values, n=4).
func TestSpread(t *testing.T) {
	v := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}
	// quantiles → [1.75, 3.5, 5.25]; median 3.5.
	if got, want := spread(v), (5.25-1.75)/3.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestStageTimes(t *testing.T) {
	ev := func(at sim.Time, kind trace.Kind, peer, entries int) trace.Event {
		return trace.Event{At: at, Kind: kind, Peer: peer, Entries: entries}
	}
	timeline := [][]trace.Event{
		{ // node 0 submits two wrappers that leave in one packet
			ev(10, trace.Submit, 1, 0),
			ev(12, trace.Submit, 1, 0),
			ev(20, trace.Depart, 1, 2),
		},
		{ // node 1 receives it and matches one entry late
			ev(50, trace.Arrive, 0, 0),
			ev(50, trace.Deliver, 0, 0),
			ev(57, trace.Deliver, 0, 0),
		},
	}
	st := stageTimes(timeline)
	for _, c := range []struct {
		name      string
		got, want []sim.Time
	}{
		{"window wait", st.windowWait, []sim.Time{10, 8}},
		{"wire", st.wire, []sim.Time{30}},
		{"rx match", st.rxMatch, []sim.Time{0, 7}},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("%s: %v, want %v", c.name, c.got, c.want)
		}
	}
	// A Depart with more entries than were submitted is not a timeline
	// the first-in first-out matching understands.
	if st := stageTimes([][]trace.Event{{ev(1, trace.Depart, 1, 1)}, {}}); len(st.windowWait)+len(st.wire) != 0 {
		t.Errorf("inconsistent timeline produced stage times: %+v", st)
	}
}
