package bench

import (
	"fmt"

	"nmad/internal/core"
	"nmad/internal/scenario"
	"nmad/internal/simnet"
)

// The figures whose workload is a phase of the scenario harness run it as
// a one-phase scenario (runPhase): the incast overload, and collectives
// and the ring exchange at emulation scale on a fabric that drops
// packets, measuring what the reliability layer costs. Every run verifies
// payload integrity — a figure is only emitted if zero payloads were
// lost, truncated or duplicated.

// faultSeed seeds every fault profile the lossy figures build: the same
// seed reproduces the same drops, and therefore the same completion
// numbers, bit for bit.
const faultSeed uint64 = 42

// faultStamp renders a profile compactly for the Series stamp.
func faultStamp(fp simnet.FaultProfile) string {
	if len(fp.Rails) == 0 {
		return ""
	}
	r := fp.Rails[0]
	s := fmt.Sprintf("drop=%g%%", 100*r.DropProb)
	if r.DupProb > 0 {
		s += fmt.Sprintf(" dup=%g%%", 100*r.DupProb)
	}
	if r.ReorderProb > 0 {
		s += fmt.Sprintf(" reorder=%g%%", 100*r.ReorderProb)
	}
	return s
}

// runPhase runs ph as a one-phase scenario on an MX cluster of nodes
// engines configured by opts, the rail dropping packets at rate drop
// under seed (lossless at 0). Every payload is verified: a corrupted one
// fails the run's integrity assertion, and with it the point.
func runPhase(nodes int, opts core.Options, drop float64, seed uint64, ph scenario.PhaseSpec) (*scenario.Report, error) {
	sc := &scenario.Scenario{
		Name:       ph.Kind,
		Cluster:    scenario.ClusterSpec{Nodes: nodes, Rails: []string{"mx10g"}, Engine: opts.NodeConfig},
		Phases:     []scenario.PhaseSpec{ph},
		Assertions: []scenario.AssertSpec{{Type: "integrity"}},
	}
	if drop > 0 {
		fp := simnet.UniformLoss(seed, drop, 1)
		sc.Cluster.Faults = &fp
	}
	return scenario.Run(sc, scenario.Config{})
}

// figScaleNodes sweeps the emulated job size from 8 to 1024 nodes:
// barrier and allgather completion, lossless vs 1% drop, reliability on
// throughout. The paper runs on real clusters; this is where the
// simulation goes beyond them.
func figScaleNodes() (Figure, error) {
	fig := Figure{
		ID: "scale-nodes", Title: "Scale — collective completion vs emulated job size (MX, reliability on)",
		XLabel: "nodes", YLabel: "completion (µs)",
		Notes: []string{
			"dissemination barrier and 64B-per-rank allgather; every payload verified intact",
			fmt.Sprintf("fault seed %d; drop applies per packet on the single MX rail", faultSeed),
		},
	}
	nodes := []int{8, 64, 256, 1024}
	opts := core.DefaultOptions()
	opts.Reliability = true
	barrier := scenario.PhaseSpec{Kind: "barrier", Msgs: 1, Count: 1}
	allgather := scenario.PhaseSpec{Kind: "allgather", Msgs: 1, Size: 64, Count: 1}
	cases := []struct {
		label string
		phase scenario.PhaseSpec
		drop  float64
	}{
		{"barrier lossless", barrier, 0},
		{"barrier 1% drop", barrier, 0.01},
		{"allgather lossless", allgather, 0},
		{"allgather 1% drop", allgather, 0.01},
	}
	for _, c := range cases {
		s := Series{Label: c.label, Strategy: "aggreg"}
		if c.drop > 0 {
			s.Seed = faultSeed
			s.Faults = faultStamp(simnet.UniformLoss(faultSeed, c.drop, 1))
		}
		retrans := 0
		for _, n := range nodes {
			rep, err := runPhase(n, opts, c.drop, faultSeed, c.phase)
			if err != nil {
				return fig, err
			}
			s.Points = append(s.Points, Point{X: n, Y: rep.Completion.Microseconds()})
			for _, st := range rep.Stats {
				retrans += st.Retransmits
			}
		}
		if c.drop > 0 {
			fig.Notes = append(fig.Notes, fmt.Sprintf("%s: %d retransmissions across the sweep", c.label, retrans))
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// figDropResilience sweeps the drop probability on an 8-node 16-segment
// ring exchange under each strategy: how completion degrades as the
// fabric gets worse, and whether the optimization window still pays off
// under loss — aggregation packs segments into fewer packets, and fewer
// packets means fewer drops to repair.
func figDropResilience() (Figure, error) {
	fig := Figure{
		ID: "drop-resilience", Title: "Drop resilience — 8-node 16-segment ring exchange (256B/segment) completion vs packet loss (MX)",
		XLabel: "drop (%)", YLabel: "completion (µs)",
		Notes: []string{
			"reliability on; every segment verified intact at every point",
			fmt.Sprintf("fault seed %d", faultSeed),
		},
	}
	drops := []float64{0, 0.05, 0.10, 0.20, 0.30}
	for _, strat := range []string{"aggreg", "default", "prio"} {
		opts := core.DefaultOptions()
		opts.Strategy = strat
		opts.Reliability = true
		s := Series{
			Label: "MadMPI[" + strat + "]", Strategy: strat,
			EngineOptions: summarizeOptions(opts),
			Seed:          faultSeed,
			Faults:        "drop swept 0..30%",
		}
		for _, drop := range drops {
			rep, err := runPhase(8, opts, drop, faultSeed, scenario.PhaseSpec{Kind: "ring", Msgs: 16, Size: 256, Count: 1})
			if err != nil {
				return fig, err
			}
			s.Points = append(s.Points, Point{X: int(100 * drop), Y: rep.Completion.Microseconds()})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}
