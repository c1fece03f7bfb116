package bench

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"

	"nmad/internal/core"
	"nmad/internal/replay"
	"nmad/internal/scenario"
	"nmad/internal/sim"
	"nmad/internal/simnet"
	"nmad/internal/trace"
)

// build assembles m, its world counting its work into wk (nil: not
// counting).
func build(wk *sim.Work, m simnet.Machine) (*simnet.Fabric, error) {
	f, err := m.Build()
	if err == nil {
		f.World().CountWork(wk)
	}
	return f, err
}

// Work regenerates a figure as Run does and returns the host work of
// every world it measured, summed over its points and lines (replay-ab's
// live recordings are set-up, and not counted).
func Work(id string) (*sim.Work, error) {
	wk := new(sim.Work)
	_, err := runFigure(id, wk)
	return wk, err
}

// FormatWork renders host-work counts as text: the op count, then one
// line per counter the run bumped with its total and its count per op.
// An op is one send or receive handed to an engine (core.sends +
// core.recvs); the baseline MPIs hand none, so a figure's per-op column
// divides all of its work by MAD-MPI's ops.
func FormatWork(wk *sim.Work) string {
	ops := wk.Get("core.sends") + wk.Get("core.recvs")
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %12d\n", "ops", ops)
	for _, t := range wk.Tallies() {
		if t.Count == 0 {
			continue
		}
		per := "-"
		if ops > 0 {
			per = strconv.FormatFloat(float64(t.Count)/float64(ops), 'f', 3, 64)
		}
		fmt.Fprintf(&b, "%-28s %12d %10s\n", t.Name, t.Count, per)
	}
	return b.String()
}

// workRows are the runs whose host work testdata/work.golden pins, each
// chosen because a different layer does its work: a replay of the
// canonical recording and of a 256-node composite ring, the scenario
// corpus, figure 2a's MAD-MPI point at 64 B, figure 3a's at 16 B per
// segment, a lossy credit-starved incast, a 64-rank ring allgather and
// 1 000 4-rank barriers. corpus is the directory of the scenario corpus.
func workRows(corpus string) []workRow {
	return []workRow{
		{"replay canonical", func(wk *sim.Work) error {
			rec, err := replay.RecordComposite(replay.CanonicalConfig())
			return replayCounted(wk, rec, err)
		}},
		{"replay ring-256", func(wk *sim.Work) error {
			rec, err := replay.RecordCompositeRing(replay.RingConfig(), 256)
			return replayCounted(wk, rec, err)
		}},
		{"scenario corpus", func(wk *sim.Work) error {
			scs, bad := scenario.ListDir(corpus)
			if len(bad) > 0 {
				// The first failing path, by name: the directory itself
				// when it cannot be read.
				path := slices.Min(slices.Collect(maps.Keys(bad)))
				return fmt.Errorf("bench: corpus: %s: %w", path, bad[path])
			}
			for _, sc := range scs {
				if _, err := scenario.Run(sc, scenario.Config{Work: wk}); err != nil {
					return err
				}
			}
			return nil
		}},
		{"figure 2a MadMPI 64 B", func(wk *sim.Work) error {
			_, err := rawPingPong(wk, madMPI(core.DefaultOptions()), mxRails(), 64)
			return err
		}},
		{"figure 3a MadMPI 16 B", func(wk *sim.Work) error {
			_, err := multiSegPingPong(wk, madMPI(core.DefaultOptions()), mxRails(), 16, 8)
			return err
		}},
		{"incast 16-to-1 lossy", func(wk *sim.Work) error {
			// Credits well under each sender's burst: the eligible view,
			// not the whole window, is what an election may walk.
			opts := core.DefaultOptions()
			opts.Credits = 8
			opts.MaxGrants = 4
			opts.Reliability = true
			_, err := runPhase(wk, 17, opts, 0.01, faultSeed, scenario.PhaseSpec{
				Kind: "incast", Target: 0, Msgs: 96, Size: 1 << 10, Count: 1,
			})
			return err
		}},
		{"allgather ring 64 ranks", func(wk *sim.Work) error {
			_, err := runPhase(wk, 64, reliable(), 0, faultSeed, scenario.PhaseSpec{
				Kind: "allgather", Msgs: 1, Size: 512, Count: 1,
			})
			return err
		}},
		{"barrier x1000 4 ranks", func(wk *sim.Work) error {
			_, err := runPhase(wk, 4, reliable(), 0, faultSeed, scenario.PhaseSpec{
				Kind: "barrier", Msgs: 1, Count: 1000,
			})
			return err
		}},
	}
}

// reliable is the default engine with reliability on.
func reliable() core.Options {
	opts := core.DefaultOptions()
	opts.Reliability = true
	return opts
}

// workRow is one run of the work golden, counting into wk.
type workRow struct {
	name string
	run  func(wk *sim.Work) error
}

// replayCounted replays a fresh recording, counting into wk; err is the
// recording's.
func replayCounted(wk *sim.Work, rec *trace.Recording, err error) error {
	if err != nil {
		return err
	}
	res, err := replay.Run(rec, replay.Config{Work: wk})
	if err == nil && res.RequestErrors > 0 {
		err = fmt.Errorf("bench: %d request errors", res.RequestErrors)
	}
	return err
}

// WorkReport runs the rows of the work golden, the scenario corpus read
// from the directory corpus, and renders each one's work: the bytes of
// testdata/work.golden, and what `nmad-bench -work` prints.
func WorkReport(corpus string) (string, error) {
	var b strings.Builder
	for _, row := range workRows(corpus) {
		wk := new(sim.Work)
		if err := row.run(wk); err != nil {
			return "", fmt.Errorf("%s: %w", row.name, err)
		}
		fmt.Fprintf(&b, "== %s ==\n%s", row.name, FormatWork(wk))
	}
	return b.String(), nil
}
