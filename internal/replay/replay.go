// Package replay re-drives a recorded offered load (trace.Recording)
// through the engine: each recorded Isend/Irecv/Isendv is re-issued at
// its recorded virtual submission time, on a cluster reconstructed from
// the recorded topology — under the recorded engine personality, or
// under a different strategy, credit budget or rail set.
//
// This separates the offered load from the scheduling decisions made on
// it: the same recording replayed under two strategies is an exact A/B
// comparison (identical submission timing, different schedules), and a
// recording replayed twice under the same strategy must produce the
// event-for-event identical timeline — the determinism property every
// scheduler change is regression-tested against.
//
// Replay is open-loop: recorded submission times are honored regardless
// of how the replayed schedule progresses, so a strategy that finishes
// later does not push subsequent submissions back the way a live
// application's blocking calls would. That is the point — the load is
// frozen, only the schedule varies.
package replay

import (
	"fmt"

	"nmad/internal/core"
	"nmad/internal/sim"
	"nmad/internal/simnet"
	"nmad/internal/trace"
)

// Config selects what varies between the recording and the replay. The
// zero value replays the recording as recorded.
type Config struct {
	// Strategy, when non-empty, replaces every node's recorded strategy
	// with the named registry strategy.
	Strategy string
	// Credits / MaxGrants, when non-nil, replace the recorded per-node
	// budgets on every node.
	Credits   *int
	MaxGrants *int
	// Rails, when non-empty, replaces the recorded rail set. Rail-pinned
	// sends recorded on rails beyond the new set fall back to the common
	// list.
	Rails []simnet.Profile
	// NoRecycle replays with the engine's free-list recycling disabled
	// (core.Options.NoRecycle): every wrapper, train and receive entry is
	// a fresh allocation. Recycling is a pure memory optimization — the
	// timeline and Stats must be byte-identical either way, which is
	// exactly what the pooling property test asserts with this switch.
	NoRecycle bool
	// DisableFaults replays a lossy recording on a lossless fabric: the
	// recorded fault profile in the header is ignored (the engines keep
	// their recorded reliability settings — an idle link layer does not
	// change what is delivered, only its ack/framing overhead). By
	// default the recorded profile is re-applied, and since the injector
	// is seeded, the same faults hit the same packets — a lossy recording
	// replays deterministically, retransmissions included. When Rails
	// overrides the rail set, a recorded per-rail profile still applies
	// by rail index; indexes beyond the new rail set are ignored.
	DisableFaults bool
}

// Result is one replayed run: the schedule the configured engines
// produced on the recorded load.
type Result struct {
	// Strategy is the strategy name the replay ran under (the recorded
	// one when Config.Strategy was empty and all nodes agreed).
	Strategy string
	// Completion is the virtual time the last re-issued request
	// completed.
	Completion sim.Time
	// Stats are the per-node engine counters.
	Stats []core.Stats
	// Events are the per-node scheduling timelines (one tracer per
	// engine), the material of the determinism checks.
	Events [][]trace.Event
	// RequestErrors counts re-issued requests that completed with an
	// error (e.g. a truncated rendezvous recorded as such).
	RequestErrors int
}

// WireBytes sums the wire footprint every node injected.
func (r *Result) WireBytes() int64 {
	var n int64
	for _, s := range r.Stats {
		n += s.WireBytes
	}
	return n
}

// Packets sums the physical output packets across nodes.
func (r *Result) Packets() int {
	n := 0
	for _, s := range r.Stats {
		n += s.OutputPackets
	}
	return n
}

// Entries sums the wrappers carried by those packets.
func (r *Result) Entries() int {
	n := 0
	for _, s := range r.Stats {
		n += s.EntriesSent
	}
	return n
}

// AggregationRatio is entries per output packet across the whole run.
func (r *Result) AggregationRatio() float64 {
	if p := r.Packets(); p > 0 {
		return float64(r.Entries()) / float64(p)
	}
	return 0
}

// TimelineLines renders every node's event sequence as stable text
// lines, the golden-file form of a replayed schedule.
func (r *Result) TimelineLines() []string {
	var out []string
	for node, evs := range r.Events {
		for _, ev := range evs {
			out = append(out, fmt.Sprintf("node%d | %s", node, ev.String()))
		}
	}
	return out
}

// Run replays a recording under the given configuration.
func Run(rec *trace.Recording, cfg Config) (*Result, error) {
	hdr := rec.Header()
	m := hdr.Machine
	if len(cfg.Rails) > 0 {
		m.Rails = cfg.Rails
	}
	if len(m.Rails) == 0 {
		return nil, fmt.Errorf("replay: recording has no rails (was the recording attached before AttachFabric?)")
	}
	switch {
	case cfg.DisableFaults:
		m.Faults = nil
	case m.Faults != nil && len(m.Faults.Rails) > len(m.Rails):
		// A rail override shrank the machine below the recorded
		// profile: apply what still has a rail.
		fp := *m.Faults
		fp.Rails = fp.Rails[:len(m.Rails)]
		m.Faults = &fp
	}
	f, err := m.Build()
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	w := f.World()

	tracers := make([]*trace.Recorder, hdr.Nodes)
	engines, err := core.NewEngines(f, func(node int) core.Options {
		opts := nodeOptions(hdr, node, cfg)
		tracers[node] = trace.NewRecorder()
		opts.Tracer = tracers[node]
		return opts
	})
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	strategies := map[string]bool{}
	for _, e := range engines {
		strategies[e.StrategyName()] = true
	}

	perNode := make([][]trace.Op, hdr.Nodes)
	for i, op := range rec.Ops() {
		if op.Node < 0 || op.Node >= hdr.Nodes || op.Peer < 0 || op.Peer >= hdr.Nodes {
			return nil, fmt.Errorf("replay: op %d addresses node %d -> %d outside the %d-node topology",
				i, op.Node, op.Peer, hdr.Nodes)
		}
		if op.Node == op.Peer {
			return nil, fmt.Errorf("replay: op %d is addressed by node %d to itself", i, op.Node)
		}
		for _, n := range op.Segs {
			if n < 0 {
				return nil, fmt.Errorf("replay: op %d has a negative segment length %d", i, n)
			}
		}
		perNode[op.Node] = append(perNode[op.Node], op)
	}

	// One dispatcher per node walks that node's ops in recorded order
	// and, at each op's recorded entry instant, spawns a dedicated
	// process that issues the operation and pays its own submit/copy
	// overhead. Spawning just-in-time (rather than pre-sleeping every
	// op process from time zero) keeps same-instant event ordering
	// faithful to the live run: an op's entry never jumps ahead of
	// engine continuations created earlier, and overlapping entries —
	// a node whose live application submitted from several concurrent
	// processes — charge their overheads concurrently, as they did
	// live.
	res := &Result{}
	nRails := len(m.Rails)
	for node := range perNode {
		ops := perNode[node]
		if len(ops) == 0 {
			continue
		}
		eng := engines[node]
		node := node
		w.Spawn(fmt.Sprintf("replay-node%d", node), func(p *sim.Proc) {
			for i, op := range ops {
				if d := op.At - p.Now(); d > 0 {
					p.Sleep(d)
				}
				op := op
				w.Spawn(fmt.Sprintf("replay-node%d-op%d", node, i), func(q *sim.Proc) {
					g := eng.Gate(simnet.NodeID(op.Peer))
					var req core.Request
					switch op.Kind {
					case trace.OpSend:
						var sopts []core.SendOption
						if op.Priority {
							sopts = append(sopts, core.Priority())
						}
						if op.Unordered {
							sopts = append(sopts, core.Unordered())
						}
						if op.Synchronous {
							sopts = append(sopts, core.Synchronous())
						}
						if op.Rail >= 0 && op.Rail < nRails {
							sopts = append(sopts, core.OnRail(op.Rail))
						}
						req = g.Isendv(q, core.Tag(op.Tag), makeSegs(op.Segs), sopts...)
					case trace.OpRecv:
						req = g.IrecvvMasked(q, core.Tag(op.Tag), core.Tag(op.Mask), makeSegs(op.Segs))
					}
					if err := req.Wait(q); err != nil {
						res.RequestErrors++
					}
					if now := q.Now(); now > res.Completion {
						res.Completion = now
					}
				})
			}
		})
	}

	if err := w.Run(); err != nil {
		return res, fmt.Errorf("replay: %w", err)
	}
	for node := 0; node < hdr.Nodes; node++ {
		res.Stats = append(res.Stats, engines[node].Stats())
		res.Events = append(res.Events, tracers[node].Events())
	}
	switch {
	case cfg.Strategy != "":
		res.Strategy = cfg.Strategy
	case len(strategies) == 1:
		for s := range strategies {
			res.Strategy = s
		}
	default:
		res.Strategy = "mixed"
	}
	return res, nil
}

// AB replays one recording under several strategies, in order.
func AB(rec *trace.Recording, strategies []string) ([]*Result, error) {
	if len(strategies) == 0 {
		return nil, fmt.Errorf("replay: AB needs at least one strategy")
	}
	out := make([]*Result, 0, len(strategies))
	for _, s := range strategies {
		r, err := Run(rec, Config{Strategy: s})
		if err != nil {
			return out, fmt.Errorf("replay: strategy %s: %w", s, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// nodeOptions rebuilds one node's engine personality from the recording
// header, then applies the replay overrides.
func nodeOptions(hdr trace.RecordingHeader, node int, cfg Config) core.Options {
	opts := core.DefaultOptions()
	if nc, ok := hdr.Engines[node]; ok {
		opts.NodeConfig = nc
	}
	if cfg.Strategy != "" {
		opts.Strategy = cfg.Strategy
	}
	if cfg.Credits != nil {
		opts.Credits = *cfg.Credits
	}
	if cfg.MaxGrants != nil {
		opts.MaxGrants = *cfg.MaxGrants
	}
	opts.NoRecycle = cfg.NoRecycle
	return opts
}

// makeSegs allocates a zeroed iovec with the recorded segment layout.
// Payload content is not part of the recording: scheduling decisions
// depend on sizes and layout only. One backing buffer serves every
// segment — two allocations per op instead of one per segment.
func makeSegs(lens []int) [][]byte {
	total := 0
	for _, n := range lens {
		total += n
	}
	buf := make([]byte, total)
	segs := make([][]byte, len(lens))
	for i, n := range lens {
		segs[i] = buf[:n:n]
		buf = buf[n:]
	}
	return segs
}
