package bench

import "testing"

// The lossy figures' acceptance property: the same fault seed
// reproduces identical numbers, and the seed actually matters.
func TestLossyCollectiveSeededDeterminism(t *testing.T) {
	run := func(seed uint64) lossyCollectiveResult {
		t.Helper()
		r, err := lossyCollective(lossyCollectiveConfig{Nodes: 8, Kind: "multiseg", Per: 256, Drop: 0.30, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(42), run(42)
	if a != b {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
	if c := run(43); c == a {
		t.Errorf("seeds 42 and 43 produced identical runs (%+v) — the seed is not reaching the injector", c)
	}
	if a.Retransmits == 0 {
		t.Error("30% drop produced no retransmissions")
	}
}
