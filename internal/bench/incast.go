package bench

import (
	"fmt"

	"nmad/internal/core"
	"nmad/internal/sim"
	"nmad/internal/simnet"
)

// The incast overload workload: N senders flood one receiver that drains
// slowly — the many-to-one traffic pattern that turns an unbounded
// receive queue into an out-of-memory scenario at production scale. With
// credit flow control (core.Options.Credits) the excess backlog stays in
// each sender's collect layer and the receiver's queues stay bounded by
// the per-gate budget; without it they grow with the flood.

// incastConfig parameterizes one incast run.
type incastConfig struct {
	// Senders is the fan-in: nodes 1..Senders all target node 0.
	Senders int
	// Msgs eager messages of Size bytes per sender, submitted as one
	// burst before any wait.
	Msgs int
	Size int
	// Credits is the per-gate eager landing budget (0 = flow control
	// off); MaxGrants caps concurrent inbound rendezvous grants.
	Credits   int
	MaxGrants int
	// DrainGap is how long the receiver works between consecutive
	// receives of one flow — the "slow receiver" that builds the
	// overload. 0 means drain at full speed.
	DrainGap sim.Time
}

// incastResult is what one incast run measured.
type incastResult struct {
	// CompletionUs is the virtual time until every payload delivered.
	CompletionUs float64
	// PeakUnexpected / PeakHeld are the receiver's high-water marks: the
	// largest unexpected queue of any single gate and the largest
	// resequencing buffer of any single flow.
	PeakUnexpected int
	PeakHeld       int
	// ProtocolErrors counts receive-path anomalies (must stay 0).
	ProtocolErrors int
	// Delivered is the payload byte count received intact.
	Delivered int64
}

// incast runs the workload on a single-rail MX fabric and verifies every
// delivered payload byte.
func incast(cfg incastConfig) (incastResult, error) {
	if cfg.Senders < 1 || cfg.Msgs < 1 {
		return incastResult{}, fmt.Errorf("bench: incast needs at least one sender and one message, got %+v", cfg)
	}
	f, err := simnet.Machine{Nodes: cfg.Senders + 1, Rails: []simnet.Profile{simnet.MX10G()}}.Build()
	if err != nil {
		return incastResult{}, err
	}
	opts := core.DefaultOptions()
	opts.Credits = cfg.Credits
	opts.MaxGrants = cfg.MaxGrants
	engines, err := core.NewEngines(f, func(int) core.Options { return opts })
	if err != nil {
		return incastResult{}, err
	}
	recv, senders := engines[0], engines[1:]

	var res incastResult
	g := sim.NewGroup(f.World())
	for s, e := range senders {
		g.Go(fmt.Sprintf("sender-%d", s+1), func(p *sim.Proc) error {
			reqs := make([]core.Request, 0, cfg.Msgs)
			for m := 0; m < cfg.Msgs; m++ {
				buf := make([]byte, cfg.Size)
				fill(buf, s+1, m)
				reqs = append(reqs, e.Gate(0).Isend(p, tagged(s+1), buf))
			}
			if err := core.WaitAll(p, reqs...); err != nil {
				return fmt.Errorf("incast sender %d: %w", s+1, err)
			}
			return nil
		})
	}
	for s := range senders {
		g.Go(fmt.Sprintf("drain-%d", s+1), func(p *sim.Proc) error {
			n, err := drain(p, recv.Gate(simnet.NodeID(s+1)), s+1, cfg.Msgs, cfg.Size, cfg.DrainGap)
			res.Delivered += n
			return err
		})
	}
	if err := g.Run(); err != nil {
		return incastResult{}, fmt.Errorf("bench: incast(%d senders, credits=%d): %w", cfg.Senders, cfg.Credits, err)
	}
	st := recv.Stats()
	res.CompletionUs = g.End().Microseconds()
	res.PeakUnexpected = st.PeakUnexpected
	res.PeakHeld = st.PeakHeld
	res.ProtocolErrors = st.ProtocolErrors
	return res, nil
}
