package replay

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"nmad/internal/core"
	"nmad/internal/sim"
	"nmad/internal/simnet"
	"nmad/internal/trace"
	"nmad/sched"
)

// -update regenerates the golden files from the current engine:
//
//	go test ./internal/replay -run Golden -update
var update = flag.Bool("update", false, "rewrite the golden recording and timeline files")

const (
	goldenRecording = "testdata/canonical.jsonl"
	goldenTimeline  = "testdata/canonical_aggreg.timeline"
)

func recordingBytes(t *testing.T, rec *trace.Recording) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.Write(&buf); err != nil {
		t.Fatalf("serialize recording: %v", err)
	}
	return buf.Bytes()
}

func loadGolden(t *testing.T) *trace.Recording {
	t.Helper()
	f, err := os.Open(goldenRecording)
	if err != nil {
		t.Fatalf("open golden recording (regenerate with -update): %v", err)
	}
	defer f.Close()
	rec, err := trace.ReadRecording(f)
	if err != nil {
		t.Fatalf("parse golden recording: %v", err)
	}
	return rec
}

// recordCanonical records the workload behind the golden recording.
func recordCanonical() (*trace.Recording, error) {
	return RecordComposite(CanonicalConfig())
}

// The recording itself must be deterministic: the same live workload
// records byte-identically run over run.
func TestRecordCanonicalDeterministic(t *testing.T) {
	a, err := recordCanonical()
	if err != nil {
		t.Fatal(err)
	}
	b, err := recordCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recordingBytes(t, a), recordingBytes(t, b)) {
		t.Fatal("two recordings of the same live workload differ")
	}
	if a.Len() == 0 {
		t.Fatal("canonical workload recorded no operations")
	}
}

// The load the benchmark's ring replays is pinned beyond the two-node
// golden: the SHA-256 of what RecordCompositeRing writes under the ring
// configuration, at 64 and 1 024 nodes.
func TestCompositeRingRecordingDigest(t *testing.T) {
	for _, tc := range []struct {
		nodes int
		want  string
	}{
		{64, "3f00dfd695393b7ba645186e118cf809330260240e7b12d82e5b0025ea7deffa"},
		{1024, "286cf0e074f490989a1218e8b25cb0f3899f55b932037bd73b9b05f61e46253c"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(recordingBytes(t, recordRing(t, tc.nodes)))); got != tc.want {
			t.Errorf("%d-node ring recording digest %s, want %s", tc.nodes, got, tc.want)
		}
	}
}

// The committed golden recording must match what the current engine
// records for the canonical workload — when it drifts (a legitimate
// submission-path change), regenerate with -update and review the diff.
func TestGoldenRecordingUpToDate(t *testing.T) {
	rec, err := recordCanonical()
	if err != nil {
		t.Fatal(err)
	}
	got := recordingBytes(t, rec)
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenRecording), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenRecording, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes, %d ops)", goldenRecording, len(got), rec.Len())
		return
	}
	want, err := os.ReadFile(goldenRecording)
	if err != nil {
		t.Fatalf("read golden recording (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("canonical recording drifted from %s (regenerate with -update and review)", goldenRecording)
	}
}

// Round-trip: what Write emits, ReadRecording restores exactly.
func TestRecordingRoundTrip(t *testing.T) {
	rec, err := recordCanonical()
	if err != nil {
		t.Fatal(err)
	}
	raw := recordingBytes(t, rec)
	back, err := trace.ReadRecording(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec.Header(), back.Header()) {
		t.Errorf("header changed in round-trip:\n got %+v\nwant %+v", back.Header(), rec.Header())
	}
	if !reflect.DeepEqual(rec.Ops(), back.Ops()) {
		t.Error("ops changed in round-trip")
	}
}

// The determinism property: replaying the same recording under the same
// strategy is event-for-event identical run over run, for every built-in
// strategy. This is the gate every future scheduler change runs against.
func TestReplayDeterministicPerStrategy(t *testing.T) {
	rec := loadGolden(t)
	for _, strat := range []string{"default", "aggreg", "split", "prio", "adaptive"} {
		t.Run(strat, func(t *testing.T) {
			a, err := Run(rec, Config{Strategy: strat})
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(rec, Config{Strategy: strat})
			if err != nil {
				t.Fatal(err)
			}
			if a.Completion != b.Completion {
				t.Errorf("completion differs run-over-run: %v vs %v", a.Completion, b.Completion)
			}
			if !reflect.DeepEqual(a.Stats, b.Stats) {
				t.Error("stats differ run-over-run")
			}
			if !reflect.DeepEqual(a.Events, b.Events) {
				t.Fatal("event timelines differ run-over-run: replay is not deterministic")
			}
			if a.RequestErrors != 0 {
				t.Errorf("replay reported %d request errors", a.RequestErrors)
			}
			if a.Packets() == 0 || a.WireBytes() == 0 {
				t.Errorf("replay moved nothing: packets=%d wire=%d", a.Packets(), a.WireBytes())
			}
		})
	}
}

// The golden timeline: the schedule the aggreg strategy produces on the
// golden recording, asserted line for line against testdata/.
func TestGoldenTimelineAggreg(t *testing.T) {
	rec := loadGolden(t)
	res, err := Run(rec, Config{Strategy: "aggreg"})
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(res.TimelineLines(), "\n") + "\n"
	if *update {
		if err := os.WriteFile(goldenTimeline, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d lines)", goldenTimeline, len(res.TimelineLines()))
		return
	}
	want, err := os.ReadFile(goldenTimeline)
	if err != nil {
		t.Fatalf("read golden timeline (regenerate with -update): %v", err)
	}
	if got != string(want) {
		// Locate the first diverging line for a useful failure message.
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("timeline drifted from %s at line %d:\n got: %s\nwant: %s\n(regenerate with -update and review)",
					goldenTimeline, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("timeline drifted from %s: %d lines vs %d (regenerate with -update and review)",
			goldenTimeline, len(gl), len(wl))
	}
}

// A/B on the golden recording: the strategies must produce different
// schedules on the same load, and the window-less default strategy can
// never aggregate more than aggreg does.
func TestReplayABOnGolden(t *testing.T) {
	rec := loadGolden(t)
	results, err := AB(rec, []string{"default", "aggreg"})
	if err != nil {
		t.Fatal(err)
	}
	def, agg := results[0], results[1]
	for _, r := range results {
		if r.Completion <= 0 {
			t.Fatalf("%s: no completion time", r.Strategy)
		}
		if r.RequestErrors != 0 {
			t.Fatalf("%s: %d request errors", r.Strategy, r.RequestErrors)
		}
	}
	if agg.AggregationRatio() < def.AggregationRatio() {
		t.Errorf("aggreg aggregates less than default on the same load: %.2f vs %.2f",
			agg.AggregationRatio(), def.AggregationRatio())
	}
	if agg.Packets() > def.Packets() {
		t.Errorf("aggreg used more packets than default on the same load: %d vs %d",
			agg.Packets(), def.Packets())
	}
}

// Credit and rail overrides re-drive the same load under a different
// flow-control budget / machine without touching the recording.
func TestReplayOverrides(t *testing.T) {
	rec := loadGolden(t)
	credits := 4
	grants := 1
	res, err := Run(rec, Config{Strategy: "aggreg", Credits: &credits, MaxGrants: &grants})
	if err != nil {
		t.Fatal(err)
	}
	if res.RequestErrors != 0 {
		t.Fatalf("credited replay: %d request errors", res.RequestErrors)
	}
	budget := 0
	for _, s := range res.Stats {
		if s.PeakUnexpected > budget {
			budget = s.PeakUnexpected
		}
	}
	if budget > credits {
		t.Errorf("peak unexpected queue %d exceeds the overridden credit budget %d", budget, credits)
	}
	base, err := Run(rec, Config{Strategy: "aggreg"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completion < base.Completion {
		t.Errorf("throttled replay finished before the unthrottled one: %v < %v", res.Completion, base.Completion)
	}
}

// Version gate: a recording from a future format version is refused.
func TestReadRecordingRejectsFutureVersion(t *testing.T) {
	raw := recordingBytes(t, mustRecording(t))
	bumped := bytes.Replace(raw, []byte(`"version":1`), []byte(`"version":99`), 1)
	if bytes.Equal(raw, bumped) {
		t.Fatal("version field not found in serialized header")
	}
	if _, err := trace.ReadRecording(bytes.NewReader(bumped)); err == nil {
		t.Error("future-version recording accepted")
	}
	if _, err := trace.ReadRecording(strings.NewReader(`{"format":"something-else","version":1}`)); err == nil {
		t.Error("foreign format accepted")
	}
}

// unregisteredStrategy is a strategy value not present in the registry.
type unregisteredStrategy struct{}

func (unregisteredStrategy) Name() string                                           { return "not-in-registry" }
func (unregisteredStrategy) Elect(w sched.Window, r sched.RailInfo) *sched.Election { return nil }

// Recording an engine whose strategy replay cannot reconstruct (a bare
// StrategyImpl value with an unregistered name) must fail at record
// time, not at replay time.
func TestRecordRejectsUnregisteredStrategyImpl(t *testing.T) {
	w := sim.NewWorld()
	f := simnet.NewFabric(w, 2, simnet.DefaultHost())
	if _, err := f.AddNetwork(simnet.MX10G()); err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.StrategyImpl = unregisteredStrategy{}
	opts.Record = trace.NewRecording()
	if _, err := core.New(f, 0, opts); err == nil {
		t.Fatal("recording with an unregistered StrategyImpl accepted; replay could never reconstruct it")
	}
	// Without a recording the same engine is fine.
	opts.Record = nil
	if _, err := core.New(f, 0, opts); err != nil {
		t.Fatalf("StrategyImpl without recording rejected: %v", err)
	}
}

// A recording is outside input: ops no engine would have recorded must
// come back as errors naming the op, not as panics deep in the engine —
// and before any engine is built: the unknown strategy every case asks
// for would fail core.NewEngines, and must not get the chance.
func TestRunRejectsHostileOps(t *testing.T) {
	sane := trace.Op{Node: 0, Peer: 1, Kind: trace.OpSend, Tag: 1, Segs: []int{64}, Rail: -1}
	for name, tc := range map[string]struct {
		op   trace.Op
		want string
	}{
		"negative segment": {trace.Op{Node: 1, Peer: 0, Kind: trace.OpRecv, Tag: 1, Segs: []int{64, -5}, Rail: -1}, "op 1 has a negative segment length -5"},
		"self-addressed":   {trace.Op{Node: 0, Peer: 0, Kind: trace.OpSend, Tag: 1, Segs: []int{64}, Rail: -1}, "op 1 is addressed by node 0 to itself"},
		// ReadRecording refuses unknown kinds; RecordOp checks nothing.
		"unknown kind": {trace.Op{Node: 1, Peer: 0, Kind: "probe", Tag: 1, Segs: []int{64}, Rail: -1}, `op 1 has unknown kind "probe"`},
		"oversized":    {trace.Op{Node: 1, Peer: 0, Kind: trace.OpRecv, Tag: 1, Segs: []int{math.MaxInt, math.MaxInt}, Rail: -1}, "op 1 is larger than"},
		// A live engine refuses such a send before recording it.
		"off-topology rail": {trace.Op{Node: 1, Peer: 0, Kind: trace.OpSend, Tag: 1, Segs: []int{64}, Rail: 7}, "op 1 pins rail 7 outside the"},
		"rail below -1":     {trace.Op{Node: 1, Peer: 0, Kind: trace.OpSend, Tag: 1, Segs: []int{64}, Rail: -2}, "op 1 pins rail -2 outside the"},
	} {
		rec := goldenWithOps(t, sane, tc.op)
		if _, err := Run(rec, Config{Strategy: "no-such-strategy"}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Run error = %v, want one containing %q", name, err, tc.want)
		}
	}
}

// A header is outside input too: a node count below one is the machine's
// error, not a panic sizing the per-node op lists from it.
func TestRunRejectsNodelessRecording(t *testing.T) {
	for _, nodes := range []int{0, -1} {
		header := fmt.Sprintf(`{"format":"nmad-recording","version":1,"nodes":%d,"rails":[{"name":"MX"}],"host":{"memcpy_bw":1},"engines":{}}`, nodes)
		rec, err := trace.ReadRecording(strings.NewReader(header))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(rec, Config{}); err == nil || !strings.Contains(err.Error(), "needs at least one node") {
			t.Errorf("nodes %d: Run error = %v, want the machine's node-count error", nodes, err)
		}
	}
}

// goldenWithOps is a recording of the golden machine and personalities
// carrying the given ops instead of the golden ones.
func goldenWithOps(t *testing.T, ops ...trace.Op) *trace.Recording {
	t.Helper()
	header, _, _ := bytes.Cut(recordingBytes(t, loadGolden(t)), []byte("\n"))
	rec, err := trace.ReadRecording(bytes.NewReader(header))
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		rec.RecordOp(op)
	}
	return rec
}

// withoutOps is the golden recording with the ops drop selects deleted.
func withoutOps(t *testing.T, drop func(trace.Op) bool) *trace.Recording {
	t.Helper()
	var kept []trace.Op
	for _, op := range loadGolden(t).Ops() {
		if !drop(op) {
			kept = append(kept, op)
		}
	}
	return goldenWithOps(t, kept...)
}

// A recording whose load cannot finish — here, receives whose sends were
// deleted — must say which re-issued requests were left, not return a
// result as if the run had drained.
func TestRunReportsUndrainedOps(t *testing.T) {
	t.Run("one missing send", func(t *testing.T) {
		rec := withoutOps(t, func(op trace.Op) bool { return op.Kind == trace.OpSend && op.Tag == uint64(ctrlTag) })
		before := runtime.NumGoroutine()
		res, err := Run(rec, Config{})
		var undrained *UndrainedError
		if !errors.As(err, &undrained) {
			t.Fatalf("Run error = %v, want an *UndrainedError", err)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("the stranded request left %d goroutine(s) parked", after-before)
		}
		// The control receive and nothing else: replay is open-loop, so
		// the reply it gated live is sent regardless.
		want := ""
		for i, op := range rec.Ops() {
			if op.Kind == trace.OpRecv && op.Tag == uint64(ctrlTag) {
				want = fmt.Sprintf("node%d op%d recv tag=0x2", op.Node, i)
			}
		}
		if undrained.Count != 1 || len(undrained.Ops) != 1 || undrained.Ops[0] != want {
			t.Errorf("undrained = %d %q, want exactly %q", undrained.Count, undrained.Ops, want)
		}
		if res == nil || len(res.Stats) != 2 || res.Completion <= 0 || res.Completion > undrained.At {
			t.Errorf("no usable result beside the error: %+v (drained at %v)", res, undrained.At)
		}
	})
	t.Run("capped and in recording order", func(t *testing.T) {
		rec := withoutOps(t, func(op trace.Op) bool { return op.Kind == trace.OpSend })
		_, err := Run(rec, Config{})
		var undrained *UndrainedError
		if !errors.As(err, &undrained) {
			t.Fatalf("Run error = %v, want an *UndrainedError", err)
		}
		if undrained.Count != rec.Len() || len(undrained.Ops) != maxUndrainedListed {
			t.Fatalf("undrained = %d listed %d, want %d listed %d", undrained.Count, len(undrained.Ops), rec.Len(), maxUndrainedListed)
		}
		for i, got := range undrained.Ops {
			if want := fmt.Sprintf("op%d ", i); !strings.Contains(got, want) {
				t.Errorf("listed[%d] = %q, want op %d", i, got, i)
			}
		}
		if want := fmt.Sprintf("and %d more", rec.Len()-maxUndrainedListed); !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not say %q", err, want)
		}
	})
}

// Every field of the recorded personality must survive engine → recording
// → JSONL → replay options: an option added to trace.NodeConfig is carried
// by construction (core.Options embeds it), and this fails if a stage ever
// goes back to copying fields one by one and misses one.
func TestPersonalityRoundTrip(t *testing.T) {
	var nc trace.NodeConfig
	v := reflect.ValueOf(&nc).Elem()
	for i := range v.NumField() {
		switch f := v.Field(i); f.Kind() {
		case reflect.String:
			f.SetString("prio") // the strategy: must resolve, and differ from the default
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(1000 + i))
		default:
			t.Fatalf("NodeConfig.%s: kind %s not handled — extend this test", v.Type().Field(i).Name, f.Kind())
		}
	}
	f, err := simnet.Machine{Nodes: 2, Rails: []simnet.Profile{simnet.MX10G()}}.Build()
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecording()
	if _, err := core.New(f, 1, core.Options{NodeConfig: nc, Record: rec}); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadRecording(bytes.NewReader(recordingBytes(t, rec)))
	if err != nil {
		t.Fatal(err)
	}
	if got := nodeOptions(back.Header(), 1, Config{}).NodeConfig; got != nc {
		t.Errorf("personality changed on the way to replay:\n got %+v\nwant %+v", got, nc)
	}
}

func mustRecording(t *testing.T) *trace.Recording {
	t.Helper()
	rec, err := recordCanonical()
	if err != nil {
		t.Fatal(err)
	}
	return rec
}
