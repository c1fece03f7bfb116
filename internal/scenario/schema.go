package scenario

import (
	"fmt"
	"reflect"

	"nmad/internal/core"
	"nmad/internal/sim"
	"nmad/internal/simnet"
	"nmad/internal/trace"
)

// The scenario schema: a declarative description of one cluster workload
// experiment. A file has up to seven top-level sections —
//
//	name:        incast-burst            # required, unique in a corpus
//	description: what this scenario shows
//	cluster:     the machine and the engine personality
//	tenants:     multi-tenant job-queue tenants (weight + priority class)
//	queue:       job-queue sizing (node, capacity, workers, aging)
//	phases:      the workload timeline (what traffic, when)
//	events:      mid-run interventions (degrade a rail, slow a node, ...)
//	assertions:  what must hold, at named checkpoints or at the end
//
// The structs below ARE the format: the decoder (decode.go) derives each
// mapping's keys from them — a field's yaml tag, else its json name, else
// its Go name in snake_case — so adding a field adds its key. The README's
// "Schema reference" paragraph is the one prose listing (a test keeps it
// complete), next to a worked example.

// Scenario is one parsed scenario file.
type Scenario struct {
	Name        string
	Description string
	Cluster     ClusterSpec
	Tenants     []TenantSpec
	Queue       *QueueSpec
	Phases      []PhaseSpec
	Events      []EventSpec
	Assertions  []AssertSpec
}

// TenantSpec declares one tenant of the multi-tenant job queue. When a
// scenario declares tenants, phases tagged with a tenant are submitted
// as queue jobs instead of starting unconditionally at their instant:
// the queue's fair-share dispatch decides when each runs.
type TenantSpec struct {
	// Name is the tenant id phases reference. Weight is the fair-share
	// weight (>= 1); Class one of bulk, normal, latency.
	Name   string
	Weight int
	Class  string
}

// QueueSpec sizes the job queue and places it on a node. Zero fields
// keep the queue package defaults.
type QueueSpec struct {
	Node     int
	Capacity int
	Workers  int
	Aging    sim.Time
}

// ClusterSpec declares the machine and the per-node engine personality.
type ClusterSpec struct {
	// Nodes is the fabric size (>= 2).
	Nodes int
	// Rails names the network profiles, in rail order (default: one
	// mx10g rail). Names resolve through simnet.ProfileByName.
	Rails []string
	// Host is the node machine model; a zero memcpy bandwidth keeps the
	// paper's default host.
	Host simnet.Host
	// Engine is the personality every node runs with: the paper's
	// defaults with the cluster.engine block decoded over them.
	Engine trace.NodeConfig
	// Faults, when non-nil, makes the fabric lossy from time zero.
	Faults *simnet.FaultProfile
}

// machine resolves the rail names into the machine description to build
// (Validate vetted them).
func (c ClusterSpec) machine() simnet.Machine {
	m := simnet.Machine{Nodes: c.Nodes, Host: c.Host, Faults: c.Faults}
	for _, name := range c.Rails {
		prof, _ := simnet.ProfileByName(name)
		m.Rails = append(m.Rails, prof)
	}
	return m
}

// PhaseSpec is one workload phase on the timeline. Phases are declared
// in strictly increasing start-time order; a phase's traffic may still
// overlap the next phase in flight (a phase only pins when its
// processes START), which is exactly how bursty multi-phase scenarios
// are built.
type PhaseSpec struct {
	// Name labels the phase for assertions and the report (default
	// "phase<N>"). Kind selects the workload; At its start instant.
	Name string
	Kind string
	At   sim.Time
	// Tenant tags the phase's traffic in the report, and — when the
	// scenario declares a tenants block — submits the phase to the job
	// queue at its instant instead of starting it unconditionally: the
	// phase then runs when the queue's fair-share dispatch grants its
	// tenant a worker, and its point-to-point sends (pingpong, ring,
	// incast, composite) carry the tenant's send options, Priority for a
	// latency tenant. Collective phases take no send options. Empty is
	// fine (the phase starts at At as usual).
	Tenant string
	// Nodes are the participants: the [a, b] pair of a pingpong or
	// composite, the ring members in ring order, empty = every node
	// (collectives always span every node).
	Nodes []int
	// Target is the incast sink; Senders its sources (empty = every
	// other node).
	Target  int
	Senders []int
	// Msgs x Size parameterize the p2p phases; Count is the pingpong /
	// barrier / ring iteration count; Root the bcast root.
	Msgs  int
	Size  int
	Count int
	Root  int
	// DrainGap stalls the incast sink between consecutive receives of
	// one flow (the "slow receiver" that builds overload).
	DrainGap sim.Time
	// Priority sends the composite phase's control message with the
	// priority flag.
	Priority bool
}

// EventSpec is one mid-run intervention (or a named checkpoint snapshot).
type EventSpec struct {
	At     sim.Time
	Action string
	// Name names a checkpoint (the checkpoint action only).
	Name string
	// Rail targets the rail actions; Scale is the degrade factor in
	// (0, 1]; Drop/Dup/Reorder the new probabilities of set_faults.
	Rail    int
	Scale   float64
	Drop    float64
	Dup     float64
	Reorder float64
	// Node targets the host actions; Factor is the slowdown (>= 1).
	Node   int
	Factor float64
	// Duration bounds rail_outage and squeeze_credits.
	Duration sim.Time
}

// AssertSpec is one assertion, evaluated at a named checkpoint or at
// the end of the run (the default).
type AssertSpec struct {
	Type string
	// At anchors the assertion: "" / "end", or a checkpoint name.
	At string
	// Node selects engines for stats assertions: a node id ("3"), or
	// one of "sum", "max", "all" (all = the predicate must hold on
	// every node). Rail likewise for fault assertions ("sum" allowed).
	Node Selector
	Rail Selector
	// Field / Op / Value form the predicate: Field names a core.Stats
	// or simnet.FaultStats counter, Op is one of < <= > >= == !=.
	Field string
	Op    string
	Value float64
	// Phase / Max / Min bound a completion assertion (Phase "" bounds
	// the whole run).
	Phase string
	Max   sim.Time
	Min   sim.Time
	// Before / After order two phases: before must complete no later
	// than after completes, and both must complete.
	Before string
	After  string
}

// Selector picks the rows a counter assertion reads: a node or rail id,
// or a word (sum, max, all). It is the one scalar a file may spell as an
// integer or as a string.
type Selector string

// elemDefaults is what a list element holds before its mapping is decoded
// over it (the zero value when absent).
var elemDefaults = map[reflect.Type]reflect.Value{
	reflect.TypeFor[TenantSpec](): reflect.ValueOf(TenantSpec{Weight: 1, Class: "normal"}),
	reflect.TypeFor[PhaseSpec]():  reflect.ValueOf(PhaseSpec{Msgs: 1, Count: 1}),
}

// Parse decodes one scenario document. The returned error wraps
// ErrSyntax or ErrSchema; semantic checks (targets, overlaps,
// checkpoints) live in Validate, which Load runs as well.
func Parse(src []byte) (*Scenario, error) {
	tree, err := parseYAML(src)
	if err != nil {
		return nil, err
	}
	sc := &Scenario{Cluster: ClusterSpec{
		Nodes: 2, Rails: []string{"mx10g"}, Engine: core.DefaultOptions().NodeConfig,
	}}
	// Room for the deepest position (cluster.faults.rails[i].outages[j].at,
	// seven steps), so the stack is allocated once.
	d := decoder{at: make([]step, 0, 8)}
	if err := d.decode(reflect.ValueOf(sc).Elem(), tree); err != nil {
		return nil, err
	}
	if sc.Name == "" {
		return nil, fmt.Errorf("%w: missing required field \"name\"", ErrSchema)
	}
	for i := range sc.Phases {
		p := &sc.Phases[i]
		if p.Name == "" {
			p.Name = fmt.Sprintf("phase%d", i)
		}
	}
	return sc, nil
}
