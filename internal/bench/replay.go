package bench

import (
	"fmt"

	"nmad/internal/core"
	"nmad/internal/replay"
	"nmad/internal/sim"
)

// figReplayAB is the trace-driven replay A/B figure: the canonical
// composite workload is recorded ONCE per bulk-chunk size (under the
// aggreg personality), then the identical offered load — same
// submission instants, same sizes, same flows — is re-driven under each
// strategy. Unlike live ablations, the submission timing cannot drift
// with the schedule, so the deltas are pure strategy effects.
func figReplayAB(wk *sim.Work) (Figure, error) {
	fig := Figure{
		ID:     "replay-ab",
		Title:  "Trace-driven replay A/B — strategies on the recorded composite workload (MX)",
		XLabel: "bulk chunk size (bytes)",
		YLabel: "completion time (µs)",
		Notes: []string{
			"one recording per size (12 bulk chunks, 8-flow small burst, 256KB rendezvous, priority control + reply)",
			"identical submission timing across strategies: deltas are pure scheduling effects",
		},
	}
	strategies := []string{"aggreg", "default", "prio", "adaptive"}
	// Every strategy replays under the recorded personality, the paper's
	// configuration: only the strategy itself varies.
	stamp := summarizeOptions(core.DefaultOptions())
	series := make(map[string]*Series, len(strategies))
	for _, s := range strategies {
		series[s] = &Series{Label: "replay[" + s + "]", Strategy: s, EngineOptions: stamp}
	}
	sizes := []int{2 << 10, 8 << 10, 32 << 10}
	for _, bulk := range sizes {
		cfg := replay.CanonicalConfig()
		cfg.Bulk = bulk
		rec, err := replay.RecordComposite(cfg)
		if err != nil {
			return fig, fmt.Errorf("bench: replay-ab recording (bulk %d): %w", bulk, err)
		}
		for _, s := range strategies {
			res, err := replay.Run(rec, replay.Config{Strategy: s, Work: wk})
			if err != nil {
				return fig, fmt.Errorf("bench: replay-ab %s (bulk %d): %w", s, bulk, err)
			}
			if res.RequestErrors > 0 {
				return fig, fmt.Errorf("bench: replay-ab %s (bulk %d): %d request errors", s, bulk, res.RequestErrors)
			}
			series[s].Points = append(series[s].Points, Point{X: bulk, Y: res.Completion.Microseconds()})
			if bulk == sizes[len(sizes)-1] {
				fig.Notes = append(fig.Notes, fmt.Sprintf(
					"%s @ %dK: %d packets, %d wire bytes, aggregation ratio %.2f",
					s, bulk>>10, res.Packets(), res.WireBytes(), res.AggregationRatio()))
			}
		}
	}
	for _, s := range strategies {
		fig.Series = append(fig.Series, *series[s])
	}
	return fig, nil
}
