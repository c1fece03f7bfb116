package core_test

import (
	"flag"
	"os"
	"strings"
	"testing"

	"nmad/internal/bench"
	"nmad/internal/core"
	"nmad/internal/replay"
	"nmad/internal/scenario"
	"nmad/internal/simnet"
	"nmad/internal/trace"
)

// These tests run the repository's larger workloads through this test
// binary, so that the engine self-checks of selfcheck_test.go watch every
// world they build: the scenario corpus, the canonical recording under
// every strategy, the lossy composite, the 256-node ring replay and the
// figures. What each workload prints is pinned by its own package; here
// it only has to run clean.

var slow = flag.Bool("slow", false, "also check the figures too slow for go test ./...")

// slowFigure is the figure left out without -slow (see internal/bench).
const slowFigure = "scale-nodes"

// selfChecked fails t with every self-check violation its workload
// reported.
func selfChecked(t *testing.T) {
	t.Helper()
	test, _, _ := strings.Cut(t.Name(), "/")
	for _, msg := range core.TakeSelfCheck(test) {
		t.Error(msg)
	}
}

func TestCorpusChecked(t *testing.T) {
	scs, bad := scenario.ListDir("../../scenarios")
	for name, err := range bad {
		t.Errorf("%s: %v", name, err)
	}
	for _, sc := range scs {
		t.Run(sc.Name, func(t *testing.T) {
			if _, err := scenario.Run(sc, scenario.Config{}); err != nil {
				t.Error(err)
			}
			selfChecked(t)
		})
	}
}

// TestCanonicalRecordingChecked replays the canonical recording under
// every registered strategy: aggregation, splitting, priorities, the
// adaptive feedback loop and its rendezvous plans.
func TestCanonicalRecordingChecked(t *testing.T) {
	f, err := os.Open("../replay/testdata/canonical.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rec, err := trace.ReadRecording(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []string{"default", "aggreg", "split", "prio", "adaptive"} {
		t.Run(strat, func(t *testing.T) {
			if _, err := replay.Run(rec, replay.Config{Strategy: strat}); err != nil {
				t.Error(err)
			}
			selfChecked(t)
		})
	}
}

// TestLossyCompositeChecked records the composite workload on a fabric
// that drops one packet in ten, with reliable engines, and replays it:
// link frames are retained and retransmitted, and resequencing holds
// parked arrivals across drops.
func TestLossyCompositeChecked(t *testing.T) {
	cfg := replay.CanonicalConfig()
	fp := simnet.UniformLoss(42, 0.10, 1)
	cfg.Faults = &fp
	cfg.Reliability = true
	rec, err := replay.RecordComposite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := replay.Run(rec, replay.Config{})
	if err != nil {
		t.Fatal(err)
	}
	selfChecked(t)
	retransmits := 0
	for _, s := range res.Stats {
		retransmits += s.Retransmits
	}
	if retransmits == 0 {
		t.Error("the lossy replay retransmitted nothing: it does not exercise the link layer")
	}
}

func TestRingReplayChecked(t *testing.T) {
	rec, err := replay.RecordCompositeRing(replay.RingConfig(), 256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := replay.Run(rec, replay.Config{}); err != nil {
		t.Error(err)
	}
	selfChecked(t)
}

func TestFiguresChecked(t *testing.T) {
	for _, info := range bench.Figures() {
		t.Run(info.ID, func(t *testing.T) {
			if info.ID == slowFigure && !*slow {
				t.Skipf("run: go test ./internal/core -run 'TestFiguresChecked/%s$' -slow -timeout 30m", info.ID)
			}
			if _, err := bench.Run(info.ID); err != nil {
				t.Error(err)
			}
			selfChecked(t)
		})
	}
}
