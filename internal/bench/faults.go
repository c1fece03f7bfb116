package bench

import (
	"fmt"

	"nmad/internal/core"
	"nmad/internal/madmpi"
	"nmad/internal/sim"
	"nmad/internal/simnet"
)

// Lossy-fabric workloads: collectives at emulation scale on a fabric
// that drops packets, measuring what the reliability layer costs. Every
// run verifies payload integrity — a figure is only emitted if zero
// payloads were lost, truncated or duplicated.

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

// lossyCollectiveConfig parameterizes one lossy collective run.
type lossyCollectiveConfig struct {
	// Nodes is the emulated job size; Kind is "barrier", "allgather" or
	// "multiseg" (a 16-segment ring neighbor exchange — the workload
	// where the optimization window matters, since aggregation packs
	// segments into fewer packets and fewer packets means fewer drops).
	Nodes int
	Kind  string
	// Per is the per-rank payload in bytes (per slot for allgather, per
	// segment for multiseg).
	Per int
	// Drop is the uniform per-packet drop probability (0 = lossless; the
	// engines run the reliability layer either way, so a lossless run
	// measures the framing/ack overhead alone).
	Drop float64
	// Seed seeds the drop decisions (unused when Drop is 0).
	Seed uint64
	// Strategy overrides the engine strategy ("" = default aggreg).
	Strategy string
}

// lossyCollectiveResult is one verified run.
type lossyCollectiveResult struct {
	// CompletionUs is the virtual time the last rank finished, in µs.
	CompletionUs float64
	// Retransmits sums link-frame re-injections across all ranks.
	Retransmits int
}

// lossyCollective runs one collective across an emulated lossy MX
// fabric with reliability-enabled engines and verifies every delivered
// payload. The run is fully deterministic in (config, seed).
func lossyCollective(cfg lossyCollectiveConfig) (lossyCollectiveResult, error) {
	var res lossyCollectiveResult
	m := simnet.Machine{Nodes: cfg.Nodes, Rails: []simnet.Profile{simnet.MX10G()}}
	if cfg.Drop > 0 {
		fp := simnet.UniformLoss(cfg.Seed, cfg.Drop, 1)
		m.Faults = &fp
	}
	f, err := m.Build()
	if err != nil {
		return res, err
	}
	opts := core.DefaultOptions()
	opts.Reliability = true
	if cfg.Strategy != "" {
		opts.Strategy = cfg.Strategy
	}

	mpis, err := madmpi.InitAll(f, opts)
	if err != nil {
		return res, err
	}
	g := sim.NewGroup(f.World())
	for i, m := range mpis {
		g.Go(fmt.Sprintf("rank%d", i), func(p *sim.Proc) error {
			rank, c := m.Rank(), m.CommWorld()
			switch cfg.Kind {
			case "barrier":
				if err := c.Barrier(p); err != nil {
					return fmt.Errorf("rank %d barrier: %w", rank, err)
				}
			case "allgather":
				me := make([]byte, cfg.Per)
				fill(me, rank, 0)
				all := make([]byte, cfg.Nodes*cfg.Per)
				if err := c.Allgather(p, me, all); err != nil {
					return fmt.Errorf("rank %d allgather: %w", rank, err)
				}
				for r := 0; r < cfg.Nodes; r++ {
					if !intact(all[r*cfg.Per:(r+1)*cfg.Per], r, 0) {
						return fmt.Errorf("rank %d: slot %d corrupt — a payload was lost or duplicated", rank, r)
					}
				}
			case "multiseg":
				const segs = 16
				next := (rank + 1) % cfg.Nodes
				prev := (rank + cfg.Nodes - 1) % cfg.Nodes
				reqs := make([]*madmpi.Request, 0, 2*segs)
				in := make([][]byte, segs)
				for s := 0; s < segs; s++ {
					out := make([]byte, cfg.Per)
					fill(out, rank, s)
					in[s] = make([]byte, cfg.Per)
					reqs = append(reqs,
						c.Irecv(p, in[s], prev, s),
						c.Isend(p, out, next, s))
				}
				if err := madmpi.Waitall(p, reqs...); err != nil {
					return fmt.Errorf("rank %d multiseg: %w", rank, err)
				}
				for s := 0; s < segs; s++ {
					if !intact(in[s], prev, s) {
						return fmt.Errorf("rank %d: segment %d corrupt — a payload was lost or duplicated", rank, s)
					}
				}
			default:
				return fmt.Errorf("bench: unknown lossy collective %q", cfg.Kind)
			}
			return nil
		})
	}
	if err := g.Run(); err != nil {
		return res, err
	}
	res.CompletionUs = g.End().Microseconds()
	for _, m := range mpis {
		res.Retransmits += m.Engine().Stats().Retransmits
	}
	return res, nil
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
	cases := []struct {
		label string
		kind  string
		drop  float64
	}{
		{"barrier lossless", "barrier", 0},
		{"barrier 1% drop", "barrier", 0.01},
		{"allgather lossless", "allgather", 0},
		{"allgather 1% drop", "allgather", 0.01},
	}
	for _, c := range cases {
		s := Series{Label: c.label, Strategy: "aggreg"}
		if c.drop > 0 {
			s.Seed = faultSeed
			s.Faults = faultStamp(simnet.UniformLoss(faultSeed, c.drop, 1))
		}
		retrans := 0
		for _, n := range nodes {
			r, err := lossyCollective(lossyCollectiveConfig{
				Nodes: n, Kind: c.kind, Per: 64, Drop: c.drop, Seed: faultSeed,
			})
			if err != nil {
				return fig, err
			}
			s.Points = append(s.Points, Point{X: n, Y: r.CompletionUs})
			retrans += r.Retransmits
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
			r, err := lossyCollective(lossyCollectiveConfig{
				Nodes: 8, Kind: "multiseg", Per: 256, Drop: drop, Seed: faultSeed, Strategy: strat,
			})
			if err != nil {
				return fig, err
			}
			s.Points = append(s.Points, Point{X: int(100 * drop), Y: r.CompletionUs})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}
