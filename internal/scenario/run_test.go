package scenario

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"nmad/internal/core"
	"nmad/internal/replay"
	"nmad/internal/sim"
	"nmad/internal/trace"
)

// eventfulDoc exercises every runtime surface at once: a lossy fabric
// with reliability, overlapping phases, rail degradation, a mid-run
// outage, a node slowdown, a credit squeeze and a checkpoint.
const eventfulDoc = `
name: eventful
cluster:
  nodes: 4
  rails: [mx10g, tcp]
  engine:
    strategy: aggreg
    reliability: true
    credits: 16
    probe_budget: 8
  faults:
    seed: 42
    rails:
      - drop: 0.01
phases:
  - name: warmup
    kind: pingpong
    at: 0us
    nodes: [0, 1]
    size: 256
    count: 8
  - name: storm
    kind: incast
    at: 150us
    target: 0
    msgs: 16
    size: 1024
  - name: bulk
    kind: composite
    at: 300us
    nodes: [2, 3]
    size: 65536
    msgs: 2
    priority: true
  - name: sync
    kind: allreduce
    at: 900us
    size: 1024
events:
  - at: 200us
    action: degrade_rail
    rail: 0
    scale: 0.5
  - at: 250us
    action: slow_node
    node: 0
    factor: 2.0
  - at: 350us
    action: rail_outage
    rail: 1
    duration: 100us
  - at: 400us
    action: squeeze_credits
    node: 0
    duration: 80us
  - at: 500us
    action: checkpoint
    name: mid
  - at: 600us
    action: restore_rail
    rail: 0
  - at: 600us
    action: restore_node
    node: 0
assertions:
  - type: integrity
  - type: completion
    max: 100ms
  - type: phase_order
    before: warmup
    after: sync
  - type: stats
    node: sum
    field: submitted
    op: ">"
    value: 0
  - type: faults
    rail: sum
    field: dropped
    op: ">="
    value: 0
  - type: stats
    at: mid
    node: sum
    field: output_packets
    op: ">"
    value: 0
`

func runDoc(t *testing.T, doc string, cfg Config) *Report {
	t.Helper()
	sc := mustParse(t, doc)
	rep, err := Run(sc, cfg)
	if err != nil {
		if rep != nil {
			var buf bytes.Buffer
			rep.Write(&buf)
			t.Log(buf.String())
		}
		t.Fatalf("Run: %v", err)
	}
	return rep
}

func TestRunEventful(t *testing.T) {
	rep := runDoc(t, eventfulDoc, Config{})
	if rep.Failures() != 0 {
		t.Fatalf("%d assertion failures", rep.Failures())
	}
	for _, ph := range rep.Phases {
		if !ph.Done {
			t.Errorf("phase %s did not complete", ph.Name)
		}
	}
}

// TestRunDeterministic: same file, same seed, byte-identical outcome —
// the report text, the completion instants and every counter.
func TestRunDeterministic(t *testing.T) {
	var first, second bytes.Buffer
	rep1 := runDoc(t, eventfulDoc, Config{})
	rep1.Write(&first)
	rep2 := runDoc(t, eventfulDoc, Config{})
	rep2.Write(&second)
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("reports differ:\n--- run 1\n%s\n--- run 2\n%s", first.String(), second.String())
	}
	if !reflect.DeepEqual(rep1.Stats, rep2.Stats) {
		t.Error("engine counters differ between identical runs")
	}
	if !reflect.DeepEqual(rep1.Faults, rep2.Faults) {
		t.Error("fault counters differ between identical runs")
	}
}

// TestRecordReplay: a scenario run with Config.Record produces a
// recording stamped with the scenario name and seed that round-trips
// through the JSONL format and replays cleanly through package replay.
func TestRecordReplay(t *testing.T) {
	rec := trace.NewRecording()
	rep := runDoc(t, eventfulDoc, Config{Record: rec})
	if rec.Len() == 0 {
		t.Fatal("recording captured no operations")
	}
	if got := rec.Meta("scenario"); got != "eventful" {
		t.Errorf("meta scenario = %q, want %q", got, "eventful")
	}
	if got := rec.Meta("seed"); got != "42" {
		t.Errorf("meta seed = %q, want %q", got, "42")
	}

	var buf bytes.Buffer
	if err := rec.Write(&buf); err != nil {
		t.Fatal(err)
	}
	rt, err := trace.ReadRecording(&buf)
	if err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if rt.Meta("scenario") != "eventful" {
		t.Error("meta lost in serialization")
	}
	res, err := replay.Run(rt, replay.Config{})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if res.Completion == 0 {
		t.Error("replay produced an empty timeline")
	}
	_ = rep
}

// TestTenantPhasesSendWithTheirClass: a tenant phase run through the job
// queue sends with its tenant's options. In the committed multi-tenant
// scenario every send of the latency tenant's rpc carries the priority
// flag and no send of the bulk tenant's bursts does. A send's phase is
// its user tag's window (the low 32 bits of the flow tag).
func TestTenantPhasesSendWithTheirClass(t *testing.T) {
	sc, err := Load(corpusDir + "/multi-tenant-queue.yaml")
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecording()
	if _, err := Run(sc, Config{Record: rec}); err != nil {
		t.Fatal(err)
	}
	sends := map[string]int{}
	for _, op := range rec.Ops() {
		if op.Kind != trace.OpSend {
			continue
		}
		name := sc.Phases[uint32(op.Tag)/tagStride].Name
		sends[name]++
		if want := name == "rpc"; op.Priority != want {
			t.Errorf("phase %s: send %d -> %d at %v has priority %v, want %v",
				name, op.Node, op.Peer, op.At, op.Priority, want)
		}
	}
	for _, name := range []string{"burst-a", "burst-b", "rpc"} {
		if sends[name] == 0 {
			t.Errorf("phase %s recorded no send", name)
		}
	}
}

// TestSlowNodeStretchesCompletion: the same workload with the target
// host slowed 8x must finish later.
func TestSlowNodeStretchesCompletion(t *testing.T) {
	base := `
name: pace
cluster:
  nodes: 2
phases:
  - name: pp
    kind: pingpong
    at: 0us
    nodes: [0, 1]
    size: 4096
    count: 20
assertions:
  - type: integrity
`
	slow := base + `events:
  - at: 0us
    action: slow_node
    node: 1
    factor: 8.0
`
	fast := runDoc(t, base, Config{})
	slowed := runDoc(t, slow, Config{})
	if slowed.Completion <= fast.Completion {
		t.Errorf("slow_node had no effect: %v vs %v", slowed.Completion, fast.Completion)
	}
}

// TestDegradeRailStretchesCompletion: halving the wire speed during a
// bulk transfer must stretch it.
func TestDegradeRailStretchesCompletion(t *testing.T) {
	base := `
name: degrade
cluster:
  nodes: 2
phases:
  - name: bulk
    kind: incast
    at: 0us
    target: 1
    msgs: 32
    size: 8192
assertions:
  - type: integrity
`
	degraded := base + `events:
  - at: 10us
    action: degrade_rail
    rail: 0
    scale: 0.25
`
	clean := runDoc(t, base, Config{})
	hit := runDoc(t, degraded, Config{})
	if hit.Completion <= clean.Completion {
		t.Errorf("degrade_rail had no effect: %v vs %v", hit.Completion, clean.Completion)
	}
}

// TestHugeDrainGapWaitsToTheEndOfTime: the largest drain gap a document
// can spell stalls the sink until the end of time. It used to wrap the
// clock negative and fire at once: the run completed at 4.602 µs, before
// the same incast with a 10 µs gap (13.483 µs).
func TestHugeDrainGapWaitsToTheEndOfTime(t *testing.T) {
	doc := func(gap string) string {
		return `
name: gap
cluster:
  nodes: 2
phases:
  - name: burst
    kind: incast
    at: 0us
    target: 0
    msgs: 2
    size: 64
    drain_gap: ` + gap + `
assertions:
  - type: integrity
`
	}
	short := runDoc(t, doc("10us"), Config{})
	huge := runDoc(t, doc("9223372036854774784ns"), Config{})
	if short.Completion != 13483 || huge.Completion != math.MaxInt64 {
		t.Errorf("completion with a 10 µs gap %v, with the largest gap %v; want 13.483µs and the end of time",
			short.Completion, huge.Completion)
	}
}

// TestAssertionFailureSurfaces: a run whose assertion cannot hold
// returns ErrAssertFailed with the failing result in the report.
func TestAssertionFailureSurfaces(t *testing.T) {
	doc := `
name: doomed
cluster:
  nodes: 2
phases:
  - name: pp
    kind: pingpong
    at: 0us
    nodes: [0, 1]
    size: 64
    count: 1
assertions:
  - type: stats
    field: submitted
    op: ">"
    value: 1000000
`
	sc := mustParse(t, doc)
	rep, err := Run(sc, Config{})
	if !errors.Is(err, ErrAssertFailed) {
		t.Fatalf("err = %v, want ErrAssertFailed", err)
	}
	if rep == nil || rep.Failures() != 1 {
		t.Fatalf("report = %+v, want exactly one failure", rep)
	}
}

// TestRunRejectsInvalidScenario: Run refuses to start an invalid
// scenario instead of crashing mid-flight.
func TestRunRejectsInvalidScenario(t *testing.T) {
	sc := mustParse(t, `
name: broken
cluster:
  nodes: 2
phases:
  - name: pp
    kind: pingpong
    at: 0us
    nodes: [0, 5]
`)
	if _, err := Run(sc, Config{}); !errors.Is(err, ErrBadTarget) {
		t.Fatalf("err = %v, want ErrBadTarget", err)
	}
}

// TestPermanentOutageTerminates: a scenario whose rail dies forever
// still drains, because probe_budget bounds the recovery probe.
func TestPermanentOutageTerminates(t *testing.T) {
	doc := `
name: dead-rail
cluster:
  nodes: 2
  rails: [mx10g, mx10g]
  engine:
    reliability: true
    retransmit_timeout: 100us
    retransmit_budget: 3
    probe_budget: 5
  faults:
    seed: 7
    rails:
      - drop: 0.0
      - outages:
          - at: 0us
            duration: 1000s
phases:
  - name: pp
    kind: pingpong
    at: 0us
    nodes: [0, 1]
    size: 512
    count: 4
assertions:
  - type: integrity
  - type: stats
    node: sum
    field: abandoned_rails
    op: ">="
    value: 0
`
	rep := runDoc(t, doc, Config{})
	if rep.Failures() != 0 {
		t.Fatalf("%d failures", rep.Failures())
	}
}

// TestRingSendBuffersSurviveBodyReissue: a ring of rendezvous-sized
// messages on a lossy fabric, where lost body spans are re-streamed. The
// ring's sends are overlapping windows onto one pattern per rank, so a
// reissue that reads the wrong stretch, or an engine write into a send
// buffer, shows up here as corrupted payloads. That a reissue reads the
// wire frames it retained rather than the caller's memory, which the
// caller may have reused by then, is core's
// TestRendezvousBufferReusableOnceWaitReturns.
func TestRingSendBuffersSurviveBodyReissue(t *testing.T) {
	doc := `
name: rdv-ring
cluster:
  nodes: 4
  rails: [mx10g]
  engine:
    reliability: true
    retransmit_timeout: 400us
    retransmit_budget: 3
  faults:
    seed: 7
    rails:
      - drop: 0.02
phases:
  - name: exchange
    kind: ring
    at: 0us
    msgs: 3
    size: 262144
    count: 12
assertions:
  - type: integrity
  - type: stats
    node: sum
    field: body_reissues
    op: ">"
    value: 0
`
	runDoc(t, doc, Config{})
}

// A Scenario built in Go runs as the same file parsed: each phase owns the
// tag window and payload pattern of its position in Phases. Two incasts
// into one sink, the second posting larger messages while the first still
// drains, would otherwise match each other's sends.
func TestBuiltScenarioRunsAsParsed(t *testing.T) {
	parsed := mustParse(t, `
name: two-incasts
cluster:
  nodes: 3
phases:
  - name: a
    kind: incast
    at: 0us
    target: 0
    msgs: 8
    size: 64
  - name: b
    kind: incast
    at: 1ns
    target: 0
    msgs: 8
    size: 128
assertions:
  - type: integrity
`)
	built := &Scenario{
		Name:    "two-incasts",
		Cluster: ClusterSpec{Nodes: 3, Rails: []string{"mx10g"}, Engine: core.DefaultOptions().NodeConfig},
		Phases: []PhaseSpec{
			{Name: "a", Kind: "incast", Target: 0, Msgs: 8, Size: 64, Count: 1},
			{Name: "b", Kind: "incast", At: sim.Nanosecond, Target: 0, Msgs: 8, Size: 128, Count: 1},
		},
		Assertions: []AssertSpec{{Type: "integrity"}},
	}
	var texts [2]bytes.Buffer
	var stats [2][]core.Stats
	for i, sc := range []*Scenario{parsed, built} {
		rep, err := Run(sc, Config{})
		if rep != nil {
			rep.Write(&texts[i])
			stats[i] = rep.Stats
		}
		if err != nil {
			t.Fatalf("run %d: %v\n%s", i, err, texts[i].String())
		}
	}
	if texts[0].String() != texts[1].String() || !reflect.DeepEqual(stats[0], stats[1]) {
		t.Errorf("built scenario ran differently:\n--- parsed\n%s--- built\n%s", texts[0].String(), texts[1].String())
	}
}
