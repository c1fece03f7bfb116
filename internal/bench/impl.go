// Package bench is the harness that regenerates every figure and table of
// the paper's evaluation (§5): the raw ping-pong (Figure 2 and the §5.1
// overhead numbers), the multi-segment ping-pong over separate
// communicators (Figure 3), and the indexed-datatype transfer (Figure 4),
// plus the strategy ablations and the scale workloads.
//
// Measurements are virtual-time exact: each data point builds a fresh
// world, runs the workload and reads the clock. No wall-clock noise, no
// warmup heuristics — the ping-pongs run two iterations of warmup only
// to reach steady protocol state (established gates, drained
// first-packet effects). The paper's figures compare MAD-MPI with the
// MPICH- and OpenMPI-like baselines on two nodes through mpiPeer; the
// figures whose workload is a scenario of package scenario (incast,
// scale-nodes, drop-resilience, tenant-isolation) build it as a
// scenario.Scenario literal and run it through scenario.Run instead of
// driving it here.
//
// A figure is a row of the registry (figureList): its header, an x grid
// and its lines, each a stamped Series with the measurement of one point,
// all measured by one loop (figure.run); 2b and 2d convert the series of
// 2a and 2c to bandwidth. Only the figures whose notes or points come
// from runs several series share — 5.1, incast, allreduce, replay-ab,
// scale-nodes and tenant-isolation — keep a builder function.
package bench

import (
	"fmt"
	"strings"

	"nmad/internal/baseline"
	"nmad/internal/core"
	"nmad/internal/madmpi"
	"nmad/internal/sim"
	"nmad/internal/simnet"
)

// seg is one contiguous block of a non-contiguous layout, shared between
// the MAD-MPI and baseline typed paths.
type seg struct {
	Off int
	Len int
}

// pending is a nonblocking operation in flight.
type pending interface {
	Wait(p *sim.Proc) error
}

// mpiPeer is the MPI surface the benchmarks need, implemented by MAD-MPI and
// by both baseline personalities.
type mpiPeer interface {
	// Isend/Irecv address (rank, tag, communicator); communicators are
	// dense small integers starting at 0.
	Isend(p *sim.Proc, buf []byte, dest, tag, comm int) pending
	Irecv(p *sim.Proc, buf []byte, src, tag, comm int) pending
	// SendTyped/RecvTyped move a non-contiguous layout, each
	// implementation using its own datatype engine.
	SendTyped(p *sim.Proc, base []byte, segs []seg, dest, tag, comm int) error
	RecvTyped(p *sim.Proc, base []byte, segs []seg, src, tag, comm int) error
}

// mpiImpl names an MPI implementation and builds a two-rank job over a
// fabric. Strategy and EngineOptions stamp the engine configuration into
// every series measured with the implementation (empty for baselines),
// so reports record what they ran.
type mpiImpl struct {
	Name          string
	Strategy      string
	EngineOptions string
	Make          func(f *simnet.Fabric) (mpiPeer, mpiPeer, error)
}

// madMPI returns the MAD-MPI implementation with the given engine
// options (DefaultOptions reproduces the paper's configuration).
func madMPI(opts core.Options) mpiImpl {
	name := "MadMPI"
	if opts.Strategy != "" && opts.Strategy != "aggreg" {
		name = "MadMPI[" + opts.Strategy + "]"
	}
	strategy := opts.Strategy
	if strategy == "" {
		strategy = "aggreg"
	}
	return mpiImpl{
		Name:          name,
		Strategy:      strategy,
		EngineOptions: summarizeOptions(opts),
		Make: func(f *simnet.Fabric) (mpiPeer, mpiPeer, error) {
			ranks, err := madmpi.InitAll(f, opts)
			if err != nil {
				return nil, nil, err
			}
			return &madPeer{mpi: ranks[0]}, &madPeer{mpi: ranks[1]}, nil
		},
	}
}

// summarizeOptions renders the engine options that shape a measurement,
// compact enough to stamp into a report line.
func summarizeOptions(o core.Options) string {
	parts := []string{
		fmt.Sprintf("submit=%v", o.SubmitOverhead),
		fmt.Sprintf("sched=%v", o.ScheduleOverhead),
	}
	if o.BodyChunk > 0 {
		parts = append(parts, fmt.Sprintf("chunk=%d", o.BodyChunk))
	}
	if o.Anticipate {
		parts = append(parts, "anticipate")
	}
	if o.FlushBacklog > 0 {
		parts = append(parts, fmt.Sprintf("flush=%d", o.FlushBacklog))
	}
	if o.Credits > 0 {
		parts = append(parts, fmt.Sprintf("credits=%d", o.Credits))
	}
	if o.MaxGrants > 0 {
		parts = append(parts, fmt.Sprintf("grants=%d", o.MaxGrants))
	}
	return strings.Join(parts, " ")
}

// mpichLike returns the MPICH-like baseline.
func mpichLike() mpiImpl { return baselineImpl("MPICH", baseline.MPICH()) }

// openMPILike returns the OpenMPI-like baseline.
func openMPILike() mpiImpl { return baselineImpl("OpenMPI", baseline.OpenMPI()) }

func baselineImpl(name string, opts baseline.Options) mpiImpl {
	return mpiImpl{
		Name: name,
		Make: func(f *simnet.Fabric) (mpiPeer, mpiPeer, error) {
			r0, err := baseline.NewRank(f, 0, 0, opts)
			if err != nil {
				return nil, nil, err
			}
			r1, err := baseline.NewRank(f, 0, 1, opts)
			if err != nil {
				return nil, nil, err
			}
			return &basePeer{r: r0}, &basePeer{r: r1}, nil
		},
	}
}

// madPeer adapts madmpi to the mpiPeer interface.
type madPeer struct {
	mpi   *madmpi.MPI
	comms []*madmpi.Comm
}

// comm resolves a dense communicator index, duplicating in ascending
// order (both ranks follow the same order, so ids agree).
func (m *madPeer) comm(i int) *madmpi.Comm {
	if len(m.comms) == 0 {
		m.comms = append(m.comms, m.mpi.CommWorld())
	}
	for len(m.comms) <= i {
		m.comms = append(m.comms, m.comms[0].Dup())
	}
	return m.comms[i]
}

func (m *madPeer) Isend(p *sim.Proc, buf []byte, dest, tag, comm int) pending {
	return m.comm(comm).Isend(p, buf, dest, tag)
}

func (m *madPeer) Irecv(p *sim.Proc, buf []byte, src, tag, comm int) pending {
	return m.comm(comm).Irecv(p, buf, src, tag)
}

func (m *madPeer) SendTyped(p *sim.Proc, base []byte, segs []seg, dest, tag, comm int) error {
	return m.comm(comm).IsendTyped(p, base, segsToDatatype(segs), 1, dest, tag).Wait(p)
}

func (m *madPeer) RecvTyped(p *sim.Proc, base []byte, segs []seg, src, tag, comm int) error {
	return m.comm(comm).IrecvTyped(p, base, segsToDatatype(segs), 1, src, tag).Wait(p)
}

// Stats exposes the engine counters for assertions and reports.
func (m *madPeer) Stats() core.Stats { return m.mpi.Engine().Stats() }

func segsToDatatype(segs []seg) madmpi.Datatype {
	lens := make([]int, len(segs))
	displs := make([]int, len(segs))
	for i, s := range segs {
		lens[i] = s.Len
		displs[i] = s.Off
	}
	return madmpi.Hindexed(lens, displs, madmpi.Byte)
}

// basePeer adapts a baseline rank to the mpiPeer interface.
type basePeer struct{ r *baseline.Rank }

func (b *basePeer) Isend(p *sim.Proc, buf []byte, dest, tag, comm int) pending {
	return b.r.Isend(p, buf, dest, tag, comm)
}

func (b *basePeer) Irecv(p *sim.Proc, buf []byte, src, tag, comm int) pending {
	return b.r.Irecv(p, buf, src, tag, comm)
}

func (b *basePeer) SendTyped(p *sim.Proc, base []byte, segs []seg, dest, tag, comm int) error {
	return b.r.SendTyped(p, base, toBaselineSegs(segs), dest, tag, comm)
}

func (b *basePeer) RecvTyped(p *sim.Proc, base []byte, segs []seg, src, tag, comm int) error {
	return b.r.RecvTyped(p, base, toBaselineSegs(segs), src, tag, comm)
}

func toBaselineSegs(segs []seg) []baseline.Segment {
	out := make([]baseline.Segment, len(segs))
	for i, s := range segs {
		out[i] = baseline.Segment{Offset: s.Off, Len: s.Len}
	}
	return out
}

// start builds a fresh two-node world over the given rails and the
// implementation's two ranks on it, ready to spawn into.
func (im mpiImpl) start(wk *sim.Work, profs []simnet.Profile) (*sim.Group, mpiPeer, mpiPeer, error) {
	f, err := build(wk, simnet.Machine{Nodes: 2, Rails: profs})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("bench: %w", err)
	}
	p0, p1, err := im.Make(f)
	return sim.NewGroup(f.World()), p0, p1, err
}
