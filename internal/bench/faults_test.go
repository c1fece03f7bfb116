package bench

import (
	"reflect"
	"testing"

	"nmad/internal/core"
	"nmad/internal/scenario"
)

// The lossy figures' acceptance property: the same fault seed
// reproduces identical numbers, and the seed actually matters.
func TestLossyCollectiveSeededDeterminism(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Reliability = true
	run := func(seed uint64) *scenario.Report {
		t.Helper()
		rep, err := runPhase(8, opts, 0.30, seed, scenario.PhaseSpec{Kind: "ring", Msgs: 16, Size: 256, Count: 1})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(42), run(42)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
	if c := run(43); reflect.DeepEqual(c, a) {
		t.Errorf("seeds 42 and 43 produced identical runs (%+v) — the seed is not reaching the injector", c)
	}
	retrans := 0
	for _, st := range a.Stats {
		retrans += st.Retransmits
	}
	if retrans == 0 {
		t.Error("30% drop produced no retransmissions")
	}
}
