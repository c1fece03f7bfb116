package nmad

import (
	"nmad/internal/core"
	"nmad/internal/madmpi"
	"nmad/internal/sim"
	"nmad/internal/simnet"
	"nmad/internal/trace"
	"nmad/sched"
)

// Re-exported engine types: the public API is the engine plus MAD-MPI;
// the internal packages carry the implementation.
type (
	// Engine is one node's NewMadeleine instance.
	Engine = core.Engine
	// Gate is a connection to one peer node.
	Gate = core.Gate
	// Tag identifies a logical flow.
	Tag = core.Tag

	// Request is the unified completion handle: sends, receives, packed
	// messages and MAD-MPI operations all satisfy it (Done / Test / Err /
	// Wait / Bytes).
	Request = core.Request
	// SendRequest and RecvRequest are the concrete nonblocking handles.
	SendRequest = core.SendRequest
	RecvRequest = core.RecvRequest
	// RequestGroup composes several requests into one handle.
	RequestGroup = core.RequestGroup

	// Message and InMessage are the Madeleine-style incremental
	// pack/unpack interfaces.
	Message   = core.Message
	InMessage = core.InMessage
	// Stats are the engine's optimizer counters.
	Stats = core.Stats

	// Strategy is the public scheduling SPI (package sched): user code
	// implements it to program the optimizer, and WithStrategy accepts
	// values of it directly. The remaining SPI surface — Window,
	// Wrapper, Election, RailInfo and the lifecycle hooks — lives in
	// package nmad/sched.
	Strategy = sched.Strategy
	// RailInfo describes one rail to a strategy: nominal driver
	// capabilities plus the sampled achieved bandwidth.
	RailInfo = sched.RailInfo
	// Election is the ordered train of wrappers a strategy elects.
	Election = sched.Election
	// Wrapper is the read-only descriptor of one optimization-window
	// entry.
	Wrapper = sched.Wrapper

	// MPI and Comm are the MAD-MPI environment and communicator.
	MPI  = madmpi.MPI
	Comm = madmpi.Comm
	// Status describes a completed MPI receive.
	Status = madmpi.Status
	// MPIRequest is a MAD-MPI nonblocking handle (it satisfies Request).
	MPIRequest = madmpi.Request
	// Datatype describes a (possibly non-contiguous) memory layout.
	Datatype = madmpi.Datatype

	// CollKind names a collective operation with pluggable algorithms;
	// CollAlgo compiles one rank's side of a collective into a schedule
	// of nonblocking steps on a CollPlan (see RegisterCollAlgo).
	CollKind = madmpi.CollKind
	CollAlgo = madmpi.CollAlgo
	CollPlan = madmpi.CollPlan
	// CollArgs is what an algorithm builder sees: rank, size, buffers,
	// the reduction operator and the pipelining segment hint.
	CollArgs = madmpi.CollArgs

	// Proc is a simulated process; Time is virtual time.
	Proc = sim.Proc
	Time = sim.Time
	// DeadlockError is what Cluster.Run returns when processes block
	// forever; it names them. Match it with errors.As.
	DeadlockError = sim.DeadlockError
	// Tracer records the engine's scheduling decisions (WithTracer).
	Tracer = trace.Recorder
	// TraceEvent is one recorded scheduling decision; TraceKind
	// classifies it.
	TraceEvent = trace.Event
	TraceKind  = trace.Kind
	// Profile parameterizes one network technology; Host the node model.
	Profile = simnet.Profile
	Host    = simnet.Host
	// NodeID identifies a host in the fabric.
	NodeID = simnet.NodeID

	// FaultProfile is a seeded description of how lossy the fabric is
	// (WithFaults); RailFaults holds one rail's drop/duplicate/reorder
	// probabilities and Outage its scheduled dark windows. FaultStats
	// counts what the injector actually did to one network.
	FaultProfile = simnet.FaultProfile
	RailFaults   = simnet.RailFaults
	Outage       = simnet.Outage
	FaultStats   = simnet.FaultStats
)

// Re-exported constants and constructors.
var (
	// WaitAll / WaitAny complete sets of requests (MPI_Waitall /
	// MPI_Waitany shaped, but for any Request, of any engine): each
	// request wakes the process waiting on it at the instant it completes.
	WaitAll = core.WaitAll
	WaitAny = core.WaitAny
	// NewRequestGroup composes requests into one handle.
	NewRequestGroup = core.NewRequestGroup

	// Strategy registry access. Strategies lists the registered names;
	// RegisterStrategy adds a constructor, returning an error on a
	// duplicate name.
	Strategies       = sched.Names
	RegisterStrategy = sched.Register
	// NewTracer / NewRingTracer create scheduling-decision recorders.
	NewTracer     = trace.NewRecorder
	NewRingTracer = trace.NewRingRecorder
	// Reduction operators for Comm.Reduce / Allreduce.
	OpSum  = madmpi.OpSum
	OpMax  = madmpi.OpMax
	OpMin  = madmpi.OpMin
	OpProd = madmpi.OpProd

	// Collective algorithm registry access, mirroring the strategy
	// registry: RegisterCollAlgo adds a named schedule builder for one
	// collective kind (error on duplicates), CollAlgoNames lists the
	// registered names, CollKinds the kinds. MPI.ForceCollAlgo (or the
	// WithCollAlgo option) pins a name, bypassing automatic selection.
	RegisterCollAlgo = madmpi.RegisterCollAlgo
	CollAlgoNames    = madmpi.CollAlgoNames
	CollKinds        = madmpi.CollKinds

	// Network profiles of the five ports.
	MX10G   = simnet.MX10G
	QsNetII = simnet.QsNetII
	GM2000  = simnet.GM2000
	SISCI   = simnet.SISCI
	TCPGbE  = simnet.TCPGbE
	// Profiles lists every built-in profile; ProfileByName resolves one.
	Profiles      = simnet.Profiles
	ProfileByName = simnet.ProfileByName
	// DefaultHost is the paper's 2006 Opteron host model.
	DefaultHost = simnet.DefaultHost
	// UniformLoss builds the simplest fault profile: the same drop
	// probability on every rail, no duplication, reordering or outages.
	UniformLoss = simnet.UniformLoss

	// MAD-MPI datatype constructors.
	Contiguous = madmpi.Contiguous
	Vector     = madmpi.Vector
	Hvector    = madmpi.Hvector
	Indexed    = madmpi.Indexed
	Hindexed   = madmpi.Hindexed
	StructType = madmpi.Struct
	Resized    = madmpi.Resized
	ByteType   = madmpi.Byte
)

// Completion errors surfaced through Request.Err / Wait.
var (
	// ErrTruncated: the message (or granted rendezvous span) exceeded
	// the posted landing area; the prefix was delivered.
	ErrTruncated = core.ErrTruncated
	// ErrProtocol: a receive-path protocol anomaly was attributed to the
	// request (see Stats.ProtocolErrors / Gate.ProtocolErrors).
	ErrProtocol = core.ErrProtocol
	// ErrBadRail: the send was pinned with OnRail to a rail the engine
	// does not have; nothing was submitted.
	ErrBadRail = core.ErrBadRail
	// ErrNoRequests: WaitAny was handed no requests.
	ErrNoRequests = core.ErrNoRequests
	// ErrBadRank: an MPI call named a peer or root rank outside the
	// communicator.
	ErrBadRank = madmpi.ErrBadRank
	// ErrSelfMessage: an MPI point-to-point call addressed its own rank,
	// which MAD-MPI does not support.
	ErrSelfMessage = madmpi.ErrSelfMessage
)

// AnyTag matches any tag of a communicator (MPI_ANY_TAG).
const AnyTag = madmpi.AnyTag

// The collective kinds with pluggable algorithms.
const (
	CollBarrier   = madmpi.CollBarrier
	CollBcast     = madmpi.CollBcast
	CollGather    = madmpi.CollGather
	CollScatter   = madmpi.CollScatter
	CollAllgather = madmpi.CollAllgather
	CollAlltoall  = madmpi.CollAlltoall
	CollReduce    = madmpi.CollReduce
	CollAllreduce = madmpi.CollAllreduce
)

// Collective completion errors.
var (
	// ErrCollBuffer: a collective buffer length does not match the
	// operation (e.g. Gather's recvBuf must be exactly Size×len(sendBuf)).
	ErrCollBuffer = madmpi.ErrCollBuffer
	// ErrCollAlgo: an unknown collective algorithm name was forced.
	ErrCollAlgo = madmpi.ErrCollAlgo
	// ErrCollTags: a communicator exhausted its collective tag space
	// (2^29 collectives); Dup a fresh communicator to continue.
	ErrCollTags = madmpi.ErrCollTags
)

// Trace event kinds, for filtering a Tracer's timeline.
const (
	TraceSubmit     = trace.Submit
	TraceElect      = trace.Elect
	TraceDepart     = trace.Depart
	TraceArrive     = trace.Arrive
	TraceDeliver    = trace.Deliver
	TraceUnexpected = trace.Unexpected
	TraceRdvStart   = trace.RdvStart
	TraceRdvGrant   = trace.RdvGrant
	TraceRdvBody    = trace.RdvBody
	TraceRetransmit = trace.Retransmit
	TraceRailEvent  = trace.RailEvent
)

// Cluster bundles a simulation world and a fabric: the "machine" a
// program runs on.
type Cluster struct {
	world  *sim.World
	fabric *simnet.Fabric
}

// NewCluster builds an n-node machine. By default every node gets one
// NIC on a single MX/Myri-10G rail and the paper's host parameters;
// WithRails and WithHost override that:
//
//	cl, err := nmad.NewCluster(4,
//		nmad.WithRails(nmad.MX10G(), nmad.QsNetII()),
//		nmad.WithHost(nmad.Host{MemcpyBandwidth: 2e9}),
//	)
func NewCluster(n int, opts ...ClusterOption) (*Cluster, error) {
	m := simnet.Machine{Nodes: n}
	for _, o := range opts {
		o(&m)
	}
	if len(m.Rails) == 0 {
		m.Rails = []Profile{simnet.MX10G()}
	}
	f, err := m.Build()
	if err != nil {
		return nil, err
	}
	return &Cluster{world: f.World(), fabric: f}, nil
}

// World returns the virtual-time world of the cluster.
func (c *Cluster) World() *sim.World { return c.world }

// Fabric returns the underlying simulated fabric.
func (c *Cluster) Fabric() *simnet.Fabric { return c.fabric }

// Now reports the current virtual time.
func (c *Cluster) Now() Time { return c.world.Now() }

// Engine creates a NewMadeleine engine on the given node, attached to
// every rail of the cluster. With no options it runs the paper's MAD-MPI
// configuration (the "aggreg" strategy and the measured software
// overheads); EngineOptions adjust it:
//
//	e, err := cl.Engine(0, nmad.WithStrategy("split"), nmad.WithTracer(tr))
func (c *Cluster) Engine(node int, opts ...EngineOption) (*Engine, error) {
	o, err := resolveEngine(opts)
	if err != nil {
		return nil, err
	}
	e, err := core.New(c.fabric, simnet.NodeID(node), o)
	if err != nil {
		return nil, err
	}
	if err := e.AttachFabric(c.fabric); err != nil {
		return nil, err
	}
	return e, nil
}

// MPI creates a MAD-MPI rank on the given node. Options configure the
// underlying engine exactly as for Engine, plus the collective layer
// (WithCollAlgo, WithCollSegment).
func (c *Cluster) MPI(node int, opts ...EngineOption) (*MPI, error) {
	cfg := resolveFull(opts)
	if cfg.err != nil {
		return nil, cfg.err
	}
	// Validate the collective configuration before Init attaches an
	// engine to the node, so an option typo leaves nothing behind.
	for _, f := range cfg.collForce {
		if err := madmpi.ValidateCollAlgo(f.kind, f.name); err != nil {
			return nil, err
		}
	}
	m, err := madmpi.Init(c.fabric, simnet.NodeID(node), cfg.Options)
	if err != nil {
		return nil, err
	}
	for _, f := range cfg.collForce {
		if err := m.ForceCollAlgo(f.kind, f.name); err != nil {
			return nil, err
		}
	}
	if cfg.collSeg > 0 {
		m.SetCollSegment(cfg.collSeg)
	}
	return m, nil
}

// Spawn starts a simulated process (one MPI rank's program, a benchmark
// driver, ...).
func (c *Cluster) Spawn(name string, fn func(p *Proc)) { c.world.Spawn(name, fn) }

// Run drives the simulation until every process finishes. It returns a
// *DeadlockError if processes block forever.
func (c *Cluster) Run() error { return c.world.Run() }
