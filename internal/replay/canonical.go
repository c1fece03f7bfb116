package replay

import (
	"fmt"

	"nmad/internal/core"
	"nmad/internal/sim"
	"nmad/internal/simnet"
	"nmad/internal/trace"
)

// CompositeConfig parameterizes the canonical composite workload: the
// multiplexing scenario of the paper's §2 — a bulk stream, a burst of
// small multi-flow sends, one large rendezvous transfer and a
// latency-sensitive priority control message, with a small reply flowing
// back. It exercises aggregation, rendezvous conversion, priority
// election and control piggybacking in one recording.
//
// A recording keeps sizes and instants, not payload bytes, so a run of
// the workload allocates no payload per operation: every send gathers
// from one shared zero buffer, and every receive lands in one shared
// sink, which nothing reads.
type CompositeConfig struct {
	// Bulk is the bulk chunk size; NBulk how many chunks stream.
	Bulk  int
	NBulk int
	// Small is how many 128-byte small sends burst across distinct
	// flows.
	Small int
	// Large is the size of the single rendezvous transfer.
	Large int
	// Faults, when non-nil, makes the fabric lossy for the live run (the
	// profile is stamped into the recording header, so replay re-applies
	// it); Reliability enables the engines' link-layer retransmission —
	// required for the workload to survive dropped packets.
	Faults      *simnet.FaultProfile
	Reliability bool
}

// CanonicalConfig is the fixed parameter set behind the committed golden
// recording (testdata/canonical.jsonl) and the CI replay smoke.
func CanonicalConfig() CompositeConfig {
	return CompositeConfig{
		Bulk:  8 << 10,
		NBulk: 12,
		Small: 8,
		Large: 256 << 10,
	}
}

// RingConfig is CanonicalConfig with its byte counts slimmed so that in a
// composite ring the node count, not the payload, is what scales: the
// ring the host-cost measurements replay.
func RingConfig() CompositeConfig {
	cfg := CanonicalConfig()
	cfg.Bulk = 2 << 10
	cfg.NBulk = 8
	cfg.Large = 32 << 10
	return cfg
}

// Flow tags of the composite workload.
const (
	bulkTag  = core.Tag(1)
	ctrlTag  = core.Tag(2)
	largeTag = core.Tag(3)
	replyTag = core.Tag(4)
	smallTag = core.Tag(16) // smallTag+i, one flow per small send
)

// Payload sizes of the composite's fixed messages.
const (
	smallSize = 128
	ctrlSize  = 32
	replySize = 1 << 10
)

// payload is the one zero buffer every send of a recording gathers from,
// and the one sink every receive lands in, each as large as the largest
// message of cfg.
type payload struct{ zero, sink []byte }

func newPayload(cfg CompositeConfig) payload {
	n := max(cfg.Bulk, cfg.Large, replySize)
	return payload{zero: make([]byte, n), sink: make([]byte, n)}
}

// compositeSend drives one node's sender half of the composite workload
// toward the peer behind g.
func compositeSend(p *sim.Proc, g *core.Gate, cfg CompositeConfig, buf payload) error {
	var reqs []core.Request
	for i := 0; i < cfg.NBulk; i++ {
		reqs = append(reqs, g.Isend(p, bulkTag, buf.zero[:cfg.Bulk]))
		switch i {
		case cfg.NBulk / 3:
			// The burst of small multi-flow sends lands mid-stream.
			for j := 0; j < cfg.Small; j++ {
				reqs = append(reqs, g.Isend(p, smallTag+core.Tag(j), buf.zero[:smallSize]))
			}
		case cfg.NBulk / 2:
			// The latency-sensitive control fragment and the large
			// rendezvous transfer.
			reqs = append(reqs, g.Isend(p, ctrlTag, buf.zero[:ctrlSize], core.Priority()))
			reqs = append(reqs, g.Isend(p, largeTag, buf.zero[:cfg.Large]))
		}
	}
	if err := core.WaitAll(p, reqs...); err != nil {
		return fmt.Errorf("composite sender: %w", err)
	}
	if _, err := g.Recv(p, replyTag, buf.sink[:replySize]); err != nil {
		return fmt.Errorf("composite sender reply: %w", err)
	}
	return nil
}

// compositeRecv drives one node's receiver half: posts for everything the
// peer behind g sends, answering the control fragment with the reply.
func compositeRecv(p *sim.Proc, g *core.Gate, cfg CompositeConfig, buf payload) error {
	var reqs []core.Request
	ctrl := g.Irecv(p, ctrlTag, buf.sink[:ctrlSize])
	for i := 0; i < cfg.NBulk; i++ {
		reqs = append(reqs, g.Irecv(p, bulkTag, buf.sink[:cfg.Bulk]))
	}
	for j := 0; j < cfg.Small; j++ {
		reqs = append(reqs, g.Irecv(p, smallTag+core.Tag(j), buf.sink[:smallSize]))
	}
	reqs = append(reqs, g.Irecv(p, largeTag, buf.sink[:cfg.Large]))
	// The reply goes out as soon as the control fragment lands: the
	// RPC-response pattern, recorded from the live schedule.
	if err := ctrl.Wait(p); err != nil {
		return fmt.Errorf("composite receiver ctrl: %w", err)
	}
	reqs = append(reqs, g.Isend(p, replyTag, buf.zero[:replySize]))
	if err := core.WaitAll(p, reqs...); err != nil {
		return fmt.Errorf("composite receiver: %w", err)
	}
	return nil
}

// recordCluster builds an N-node recorded MX cluster of engines in the
// paper's configuration (core.DefaultOptions, reliability as cfg says),
// and the group its workload runs in.
func recordCluster(cfg CompositeConfig, nodes int) (*trace.Recording, *sim.Group, []*core.Engine, error) {
	f, err := simnet.Machine{Nodes: nodes, Rails: []simnet.Profile{simnet.MX10G()}, Faults: cfg.Faults}.Build()
	if err != nil {
		return nil, nil, nil, err
	}
	opts := core.DefaultOptions()
	opts.Reliability = cfg.Reliability
	opts.Record = trace.NewRecording()
	engines, err := core.NewEngines(f, func(int) core.Options { return opts })
	if err != nil {
		return nil, nil, nil, err
	}
	return opts.Record, sim.NewGroup(f.World()), engines, nil
}

// RecordComposite runs the composite workload live on a fresh two-node
// MX cluster with recording enabled and returns the recording. The run
// is deterministic: the same configuration always yields the same
// recording, byte for byte.
func RecordComposite(cfg CompositeConfig) (*trace.Recording, error) {
	rec, g, engines, err := recordCluster(cfg, 2)
	if err != nil {
		return nil, err
	}
	buf := newPayload(cfg)
	g.Go("sender", func(p *sim.Proc) error { return compositeSend(p, engines[0].Gate(1), cfg, buf) })
	g.Go("receiver", func(p *sim.Proc) error { return compositeRecv(p, engines[1].Gate(0), cfg, buf) })
	if err := g.Run(); err != nil {
		return nil, fmt.Errorf("replay: recording composite workload: %w", err)
	}
	return rec, nil
}

// RecordCompositeRing scales the composite workload to an N-node ring:
// every node runs the canonical sender toward its successor and the
// canonical receiver toward its predecessor, so all N engines schedule
// concurrently and the offered load grows linearly with the ring. This is
// the workload the repo benchmark's ring-replay-1024 replays to measure
// what the engine itself costs in host time and allocations. With
// nodes = 2 the ring degenerates to the two-node composite with both
// directions active. All N nodes share one zero buffer and one sink (see
// CompositeConfig).
func RecordCompositeRing(cfg CompositeConfig, nodes int) (*trace.Recording, error) {
	if nodes < 2 {
		return nil, fmt.Errorf("replay: composite ring needs at least 2 nodes, got %d", nodes)
	}
	rec, g, engines, err := recordCluster(cfg, nodes)
	if err != nil {
		return nil, err
	}
	buf := newPayload(cfg)
	for i, e := range engines {
		next := (i + 1) % nodes
		prev := (i + nodes - 1) % nodes
		g.Go(fmt.Sprintf("ring-send%d", i), func(p *sim.Proc) error {
			return compositeSend(p, e.Gate(simnet.NodeID(next)), cfg, buf)
		})
		g.Go(fmt.Sprintf("ring-recv%d", i), func(p *sim.Proc) error {
			return compositeRecv(p, e.Gate(simnet.NodeID(prev)), cfg, buf)
		})
	}
	if err := g.Run(); err != nil {
		return nil, fmt.Errorf("replay: recording %d-node composite ring: %w", nodes, err)
	}
	return rec, nil
}
