package bench

import (
	"fmt"

	"nmad/internal/core"
	"nmad/internal/sim"
	"nmad/internal/simnet"
)

// Additional workloads beyond the paper's three, used by the ablation
// figures: a composite application mixing a bulk stream with a
// latency-sensitive control flow (§2's "irregular and multi-flow
// communication schemes"), and a congestion scenario exercising the
// bandwidth sampler.

// compositeControlLatency models a composite application: node 0 pushes a
// continuous bulk stream (nbulk chunks of bulkSize) and, mid-stream,
// issues one small control message. It returns the control message's
// delivery latency in µs — the figure of merit for multiplexing quality.
// prio selects the engine's priority flag for the control message (only
// meaningful for MAD-MPI).
func compositeControlLatency(impl mpiImpl, profs []simnet.Profile, bulkSize, nbulk int, prio bool) (float64, error) {
	g, p0, p1, err := impl.start(profs)
	if err != nil {
		return 0, err
	}
	const (
		bulkComm = 0
		ctrlComm = 1
	)
	var sentAt, recvAt sim.Time
	g.Go("sender", func(p *sim.Proc) error {
		reqs := make([]pending, 0, nbulk+1)
		half := nbulk / 2
		for i := 0; i < nbulk; i++ {
			reqs = append(reqs, p0.Isend(p, make([]byte, bulkSize), 1, 0, bulkComm))
			if i == half {
				sentAt = p.Now()
				if mp, ok := p0.(*madPeer); ok && prio {
					reqs = append(reqs, mp.comm(ctrlComm).IsendPriority(p, []byte("ctrl"), 1, 0))
				} else {
					reqs = append(reqs, p0.Isend(p, []byte("ctrl"), 1, 0, ctrlComm))
				}
			}
		}
		return waitEach(p, reqs)
	})
	g.Go("receiver", func(p *sim.Proc) error {
		ctrl := p1.Irecv(p, make([]byte, 16), 0, 0, ctrlComm)
		bulk := make([]pending, nbulk)
		for i := 0; i < nbulk; i++ {
			bulk[i] = p1.Irecv(p, make([]byte, bulkSize), 0, 0, bulkComm)
		}
		if err := ctrl.Wait(p); err != nil {
			return err
		}
		recvAt = p.Now()
		return waitEach(p, bulk)
	})
	if err := g.Run(); err != nil {
		return 0, fmt.Errorf("bench: composite(%s): %w", impl.Name, err)
	}
	return (recvAt - sentAt).Microseconds(), nil
}

// congestedTransfer measures a large two-rail transfer when one rail is
// congested below its nominal bandwidth. With warmup > 0, warmup
// transfers run first so the engine's sampler learns the functional
// bandwidth and the split strategy rebalances; with warmup == 0 the plan
// uses nominal figures and overloads the congested rail. Returns the
// measured transfer's one-way time in µs.
func congestedTransfer(size int, mxScale float64, warmup int) (float64, error) {
	f, err := simnet.Machine{Nodes: 2, Rails: []simnet.Profile{simnet.MX10G(), simnet.QsNetII()}}.Build()
	if err != nil {
		return 0, err
	}
	f.Networks()[0].SetWireScale(mxScale)

	opts := core.DefaultOptions()
	opts.Strategy = "split"
	engines, err := core.NewEngines(f, func(int) core.Options { return opts })
	if err != nil {
		return 0, err
	}
	e0, e1 := engines[0], engines[1]

	g := sim.NewGroup(f.World())
	var start, stop sim.Time
	g.Go("sender", func(p *sim.Proc) error {
		for i := 0; i <= warmup; i++ {
			if i == warmup {
				start = p.Now()
			}
			if err := e0.Gate(1).Send(p, tagged(i), make([]byte, size)); err != nil {
				return err
			}
		}
		return nil
	})
	g.Go("receiver", func(p *sim.Proc) error {
		for i := 0; i <= warmup; i++ {
			if _, err := e1.Gate(0).Recv(p, tagged(i), make([]byte, size)); err != nil {
				return err
			}
		}
		stop = p.Now()
		return nil
	})
	if err := g.Run(); err != nil {
		return 0, err
	}
	return (stop - start).Microseconds(), nil
}

// tagged converts a loop index to a flow tag (helper shared by the
// congestion workloads).
func tagged(i int) core.Tag { return core.Tag(i + 1) }

// waitEach waits for every request in posting order and returns the
// first error.
func waitEach(p *sim.Proc, reqs []pending) error {
	for _, r := range reqs {
		if err := r.Wait(p); err != nil {
			return err
		}
	}
	return nil
}

// fill writes the deterministic payload of message msg from sender;
// intact reports whether buf still holds exactly that payload.
func fill(buf []byte, sender, msg int) {
	for i := range buf {
		buf[i] = byte(sender*31 + msg*7 + i)
	}
}

func intact(buf []byte, sender, msg int) bool {
	for i, b := range buf {
		if b != byte(sender*31+msg*7+i) {
			return false
		}
	}
	return true
}

// drain receives the msgs payloads of flow `flow` (tag tagged(flow),
// filled by fill(buf, flow, m)) from g one after another and returns the
// bytes that arrived intact.
func drain(p *sim.Proc, g *core.Gate, flow, msgs, size int) (int64, error) {
	var delivered int64
	buf := make([]byte, size)
	for m := 0; m < msgs; m++ {
		n, err := g.Recv(p, tagged(flow), buf)
		if err != nil {
			return delivered, fmt.Errorf("drain flow %d: %w", flow, err)
		}
		if !intact(buf[:n], flow, m) {
			return delivered, fmt.Errorf("drain flow %d: corrupt payload in msg %d", flow, m)
		}
		delivered += int64(n)
	}
	return delivered, nil
}
