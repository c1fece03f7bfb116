package bench

import (
	"fmt"

	"nmad/internal/core"
	"nmad/internal/madmpi"
	"nmad/internal/sim"
	"nmad/internal/simnet"
)

// The allreduce workload: N ranks reduce a float64 vector element-wise
// and all end with the result — the dominant collective of iterative
// numerical codes, and the one where algorithm choice matters most. The
// sweep compares the schedule-engine algorithms (binomial tree fused
// with a broadcast; segmented pipelined ring reduce-scatter+allgather)
// against the seed's blocking tree loops, across vector size and node
// count, so the benefit of pipelining through the optimizer is a curve,
// not an anecdote.

// seedAlgo selects the pre-engine baseline in allreduceTime: the seed's
// blocking binomial reduce-then-broadcast, reproduced verbatim on the
// point-to-point layer.
const seedAlgo = "seed"

// allreduceConfig parameterizes one measured allreduce.
type allreduceConfig struct {
	// Nodes ranks on one MX rail reduce a vector of Elems float64s.
	Nodes int
	Elems int
	// Algo is a registered allreduce algorithm ("tree", "ring"), the
	// seedAlgo baseline, or "" for the automatic selection.
	Algo string
}

// allreduceTime measures one allreduce: virtual microseconds from every
// rank entering the operation (after a warmup round and a barrier) to
// the last rank completing it, verifying the reduction on every rank.
func allreduceTime(wk *sim.Work, cfg allreduceConfig) (float64, error) {
	if cfg.Nodes < 2 || cfg.Elems < 1 {
		return 0, fmt.Errorf("bench: allreduce needs ≥2 nodes and ≥1 element, got %+v", cfg)
	}
	f, err := build(wk, simnet.Machine{Nodes: cfg.Nodes, Rails: []simnet.Profile{simnet.MX10G()}})
	if err != nil {
		return 0, err
	}
	ranks, err := madmpi.InitAll(f, core.DefaultOptions())
	if err != nil {
		return 0, err
	}
	for _, m := range ranks {
		if cfg.Algo != "" && cfg.Algo != seedAlgo {
			if err := m.ForceCollAlgo(madmpi.CollAllreduce, cfg.Algo); err != nil {
				return 0, err
			}
		}
	}
	allreduce := func(p *sim.Proc, m *madmpi.MPI, in, out []float64) error {
		if cfg.Algo == seedAlgo {
			return seedAllreduce(p, m.CommWorld(), in, out)
		}
		return m.CommWorld().Allreduce(p, in, out, madmpi.OpSum)
	}
	g := sim.NewGroup(f.World())
	var start sim.Time // the last rank out of the barrier
	for _, m := range ranks {
		g.Go(fmt.Sprintf("rank-%d", m.Rank()), func(p *sim.Proc) error {
			in := make([]float64, cfg.Elems)
			for i := range in {
				in[i] = float64(m.Rank() + i%5)
			}
			out := make([]float64, cfg.Elems)
			// One warmup round reaches steady protocol state, then a
			// barrier aligns the measured entry.
			if err := allreduce(p, m, in, out); err != nil {
				return err
			}
			if err := m.CommWorld().Barrier(p); err != nil {
				return err
			}
			start = max(start, p.Now())
			if err := allreduce(p, m, in, out); err != nil {
				return err
			}
			for i := range out {
				want := float64(i%5*cfg.Nodes + cfg.Nodes*(cfg.Nodes-1)/2)
				if out[i] != want {
					return fmt.Errorf("bench: allreduce[%s] rank %d element %d = %g, want %g",
						cfg.Algo, m.Rank(), i, out[i], want)
				}
			}
			return nil
		})
	}
	if err := g.Run(); err != nil {
		return 0, fmt.Errorf("bench: allreduce(%+v): %w", cfg, err)
	}
	return (g.End() - start).Microseconds(), nil
}

// seedAllreduce reproduces the seed's collectives exactly: a blocking
// binomial-tree reduce to rank 0 (each round a blocking Send or Recv)
// followed by a blocking binomial broadcast with serialized child sends
// — every round a full synchronization, nothing for the optimizer to
// aggregate or overlap.
func seedAllreduce(p *sim.Proc, c *madmpi.Comm, send, recv []float64) error {
	n, me := c.Size(), c.Rank()
	acc := append([]float64(nil), send...)
	buf := make([]byte, 8*len(send))
	for mask := 1; mask < n; mask *= 2 {
		if me&mask != 0 {
			if err := c.Send(p, madmpi.PackF64(acc), me-mask, 0); err != nil {
				return err
			}
			break
		}
		if me+mask < n {
			if _, err := c.Recv(p, buf, me+mask, 0); err != nil {
				return err
			}
			other := madmpi.UnpackF64(buf, len(acc))
			for i := range acc {
				acc[i] += other[i]
			}
		}
	}
	raw := make([]byte, 8*len(send))
	if me == 0 {
		copy(raw, madmpi.PackF64(acc))
	}
	// Blocking binomial broadcast from rank 0.
	if me != 0 {
		mask := 1
		for mask <= me {
			mask *= 2
		}
		mask /= 2
		if _, err := c.Recv(p, raw, me-mask, 1); err != nil {
			return err
		}
	}
	mask := 1
	for mask <= me {
		mask *= 2
	}
	for ; mask < n; mask *= 2 {
		child := me + mask
		if child >= n {
			break
		}
		if err := c.Send(p, raw, child, 1); err != nil {
			return err
		}
	}
	copy(recv, madmpi.UnpackF64(raw, len(send)))
	return nil
}

// figAllreduce sweeps vector size × node count × algorithm: the measure
// of the collective schedule engine against the seed's blocking trees.
func figAllreduce(wk *sim.Work) (Figure, error) {
	fig := Figure{
		ID:     "allreduce",
		Title:  "Allreduce — schedule-engine algorithms vs the seed blocking tree (MX, float64 vectors)",
		XLabel: "vector size (bytes)", YLabel: "completion (µs)",
		Notes: []string{
			"seed = blocking binomial reduce+bcast round-loops; tree/ring run on the nonblocking schedule engine",
			"ring = segmented pipelined reduce-scatter + allgather (8KB segments)",
		},
	}
	sizes := []int{8 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20}
	stamp := summarizeOptions(core.DefaultOptions())
	for _, nodes := range []int{4, 8} {
		for _, algo := range []string{seedAlgo, "tree", "ring"} {
			s := Series{Label: fmt.Sprintf("%s n=%d", algo, nodes), Strategy: "aggreg", EngineOptions: stamp}
			if algo == seedAlgo {
				s.EngineOptions = stamp + " (blocking p2p loops)"
			}
			for _, bytes := range sizes {
				t, err := allreduceTime(wk, allreduceConfig{Nodes: nodes, Elems: bytes / 8, Algo: algo})
				if err != nil {
					return fig, err
				}
				s.Points = append(s.Points, Point{X: bytes, Y: t})
			}
			fig.Series = append(fig.Series, s)
		}
	}
	for _, nodes := range []int{4, 8} {
		big := sizes[len(sizes)-1]
		gain, err := speedup(fig, fmt.Sprintf("ring n=%d", nodes), fmt.Sprintf("%s n=%d", seedAlgo, nodes), big)
		if err != nil {
			return fig, err
		}
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"n=%d: pipelined ring %.2fx faster than the seed blocking tree at %dMB", nodes, gain, big>>20))
	}
	return fig, nil
}
