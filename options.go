package nmad

import (
	"fmt"

	"nmad/internal/core"
	"nmad/internal/simnet"
	"nmad/internal/trace"
	"nmad/sched"
)

// Functional options — the construction surface of the facade. Cluster
// assembly, engine personality and per-submission scheduling hints are
// all expressed as composable options instead of raw struct literals:
//
//	cl, _ := nmad.NewCluster(2, nmad.WithRails(nmad.MX10G(), nmad.QsNetII()))
//	e, _ := cl.Engine(0, nmad.WithStrategy("aggreg"), nmad.WithTracer(tr))
//	e.Gate(1).Isend(p, tag, data, nmad.Priority(), nmad.OnRail(1))

// ClusterOption configures NewCluster: it edits the description of the
// machine to build.
type ClusterOption func(*simnet.Machine)

// WithRails equips every node with one NIC per given profile, in order
// (rail 0 first). Without it the cluster gets a single MX/Myri-10G rail.
func WithRails(profiles ...Profile) ClusterOption {
	return func(m *simnet.Machine) { m.Rails = append(m.Rails, profiles...) }
}

// WithHost overrides the node host model (memcpy bandwidth etc.).
func WithHost(h Host) ClusterOption {
	return func(m *simnet.Machine) { m.Host = h }
}

// WithFaults makes the fabric lossy: the profile's seeded per-rail
// drop/duplicate/reorder probabilities and scheduled outages apply to
// every packet injected. Same profile, same workload ⇒ the same faults,
// bit for bit. Pair it with WithReliability on every engine, or lost
// packets become lost messages:
//
//	cl, _ := nmad.NewCluster(8, nmad.WithFaults(nmad.UniformLoss(42, 0.05, 1)))
//	e, _ := cl.Engine(0, nmad.WithReliability())
func WithFaults(fp FaultProfile) ClusterOption {
	return func(m *simnet.Machine) { m.Faults = &fp }
}

// EngineOption configures one engine (or the engine under an MPI rank).
// The zero configuration is the paper's MAD-MPI personality: the
// aggregation strategy and the measured software overheads.
type EngineOption func(*engineConfig)

// engineConfig is the resolved engine configuration plus any option
// error, reported when the engine is constructed rather than by panic.
// The collective fields apply only to MPI ranks (Cluster.MPI); a bare
// engine has no collectives to configure.
type engineConfig struct {
	core.Options
	collForce []collForcePair
	collSeg   int
	err       error
}

type collForcePair struct {
	kind CollKind
	name string
}

// resolveEngine folds options over the paper's default configuration.
func resolveEngine(opts []EngineOption) (core.Options, error) {
	c := resolveFull(opts)
	return c.Options, c.err
}

func resolveFull(opts []EngineOption) engineConfig {
	c := engineConfig{Options: core.DefaultOptions()}
	for _, opt := range opts {
		opt(&c)
	}
	return c
}

// WithStrategy selects the optimization strategy: either a registry name
// ("default", "aggreg", "split", "prio", "adaptive", or anything added
// through RegisterStrategy), or a sched.Strategy value used directly —
// the route for strategies that are configured per engine rather than
// registered globally:
//
//	cl.Engine(0, nmad.WithStrategy("adaptive"))
//	cl.Engine(1, nmad.WithStrategy(myStrategy{window: 8}))
//
// Any other argument type surfaces as an error from Engine/MPI.
func WithStrategy(v any) EngineOption {
	return func(c *engineConfig) {
		switch s := v.(type) {
		case string:
			c.Strategy, c.StrategyImpl = s, nil
		case sched.Strategy:
			c.StrategyImpl = s
		default:
			if c.err == nil {
				c.err = fmt.Errorf("nmad: WithStrategy wants a registry name or a sched.Strategy, got %T", v)
			}
		}
	}
}

// WithTracer records every scheduling decision of the engine on the
// virtual timeline.
func WithTracer(tr *trace.Recorder) EngineOption {
	return func(c *engineConfig) { c.Tracer = tr }
}

// WithRecording captures every application-level submission of the
// engine (with its virtual-time offset and the cluster topology) into a
// replayable recording — the offered load of the run, separated from
// the schedule produced on it. Attach the same recording to every
// engine of the cluster, then persist it with Recording.Write and
// re-drive it with Replay / ReplayAB or cmd/nmad-replay.
func WithRecording(rec *trace.Recording) EngineOption {
	return func(c *engineConfig) { c.Record = rec }
}

// WithBodyChunk sets trace.NodeConfig.BodyChunk, the rendezvous body chunk.
func WithBodyChunk(bytes int) EngineOption {
	return func(c *engineConfig) { c.BodyChunk = bytes }
}

// WithAnticipation sets trace.NodeConfig.Anticipate, the §3.2 anticipation
// mode.
func WithAnticipation() EngineOption {
	return func(c *engineConfig) { c.Anticipate = true }
}

// WithFlushBacklog sets trace.NodeConfig.FlushBacklog, the §3.2 flush
// mode.
func WithFlushBacklog(n int) EngineOption {
	return func(c *engineConfig) { c.FlushBacklog = n }
}

// WithCredits sets trace.NodeConfig.Credits, the receive flow control
// budget.
func WithCredits(n int) EngineOption {
	return func(c *engineConfig) { c.Credits = n }
}

// WithMaxGrants sets trace.NodeConfig.MaxGrants, the inbound rendezvous
// cap.
func WithMaxGrants(n int) EngineOption {
	return func(c *engineConfig) { c.MaxGrants = n }
}

// WithReliability sets trace.NodeConfig.Reliability, the link-layer
// reliability protocol.
func WithReliability() EngineOption {
	return func(c *engineConfig) { c.Reliability = true }
}

// WithRetransmitTimeout sets trace.NodeConfig.RetransmitTimeout.
func WithRetransmitTimeout(d Time) EngineOption {
	return func(c *engineConfig) { c.RetransmitTimeout = d }
}

// WithRetransmitBudget sets trace.NodeConfig.RetransmitBudget.
func WithRetransmitBudget(n int) EngineOption {
	return func(c *engineConfig) { c.RetransmitBudget = n }
}

// WithProbeBudget sets trace.NodeConfig.ProbeBudget.
func WithProbeBudget(n int) EngineOption {
	return func(c *engineConfig) { c.ProbeBudget = n }
}

// WithCollAlgo pins the collective algorithm used for one collective
// kind on an MPI rank, bypassing the automatic size/comm-size selection:
//
//	m, _ := cl.MPI(0, nmad.WithCollAlgo(nmad.CollAllreduce, "ring"))
//
// The name must be registered (see RegisterCollAlgo / CollAlgoNames);
// configure every rank of a job identically. The option only affects
// Cluster.MPI — a bare engine has no collectives.
func WithCollAlgo(kind CollKind, name string) EngineOption {
	return func(c *engineConfig) {
		c.collForce = append(c.collForce, collForcePair{kind: kind, name: name})
	}
}

// WithCollSegment sets the pipelining segment size in bytes for the
// segmented collective algorithms (pipeline bcast/reduce, ring
// allreduce). Smaller segments pipeline deeper; larger ones amortize
// per-packet overhead. Applies to Cluster.MPI ranks only.
func WithCollSegment(bytes int) EngineOption {
	return func(c *engineConfig) { c.collSeg = bytes }
}

// Per-submission scheduling options, accepted by Gate.Isend, Gate.Isendv,
// Gate.Issend and Gate.BeginPack.
type SendOption = core.SendOption

var (
	// Priority asks the optimizer to favor earliest delivery (the RPC
	// service-id pattern).
	Priority = core.Priority
	// Unordered delivers the submission outside per-flow sequence order.
	Unordered = core.Unordered
	// Synchronous completes the send only once the receiver matched it.
	Synchronous = core.Synchronous
	// OnRail pins the submission to one rail instead of the common list.
	OnRail = core.OnRail
)
