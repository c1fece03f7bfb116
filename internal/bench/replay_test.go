package bench

import "testing"

// The replay-ab figure must compare every strategy on identical wire
// work: same recording, same total bytes moved — only the schedule
// (packet count, completion) may differ. And the aggregating strategy
// can never lose to the window-less default on the composite workload.
func TestReplayABFigure(t *testing.T) {
	fig, err := figReplayAB(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("expected 4 strategy series, got %d", len(fig.Series))
	}
	byLabel := map[string]Series{}
	for _, s := range fig.Series {
		if len(s.Points) != 3 {
			t.Errorf("%s: %d points, want 3", s.Label, len(s.Points))
		}
		byLabel[s.Label] = s
	}
	agg, def := byLabel["replay[aggreg]"], byLabel["replay[default]"]
	for i := range agg.Points {
		if agg.Points[i].X != def.Points[i].X {
			t.Fatalf("series sweep grids diverge: %v vs %v", agg.Points[i].X, def.Points[i].X)
		}
		// Identical offered load: aggregation may only help (small
		// tolerance for scheduling noise at tiny sizes).
		if agg.Points[i].Y > def.Points[i].Y*1.02 {
			t.Errorf("aggreg slower than default on identical recorded load at %dB: %.2f vs %.2f µs",
				agg.Points[i].X, agg.Points[i].Y, def.Points[i].Y)
		}
	}
}
