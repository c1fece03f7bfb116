package scenario

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"nmad/internal/core"
	"nmad/internal/sim"
	"nmad/internal/simnet"
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
// See doc.go for the full field reference and a worked example.

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
	Engine core.Options
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

// Phase kinds the harness implements.
const (
	PhasePingPong  = "pingpong"
	PhaseRing      = "ring"
	PhaseIncast    = "incast"
	PhaseComposite = "composite"
	PhaseBarrier   = "barrier"
	PhaseBcast     = "bcast"
	PhaseAllgather = "allgather"
	PhaseAllreduce = "allreduce"
	PhaseAlltoall  = "alltoall"
)

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
	// tenant a worker. Empty is fine (the phase starts at At as usual).
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

	index int // position in Scenario.Phases, set by Parse
}

// Event actions the harness implements.
const (
	ActionDegradeRail    = "degrade_rail"
	ActionRestoreRail    = "restore_rail"
	ActionSetFaults      = "set_faults"
	ActionRailOutage     = "rail_outage"
	ActionSlowNode       = "slow_node"
	ActionRestoreNode    = "restore_node"
	ActionSqueezeCredits = "squeeze_credits"
	ActionCheckpoint     = "checkpoint"
)

// EventSpec is one mid-run intervention (or a named checkpoint snapshot).
type EventSpec struct {
	At     sim.Time
	Action string
	// Name names a checkpoint (ActionCheckpoint only).
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

// Assertion types the harness implements.
const (
	AssertStats      = "stats"
	AssertFaults     = "faults"
	AssertCompletion = "completion"
	AssertIntegrity  = "integrity"
	AssertPhaseOrder = "phase_order"
)

// AssertSpec is one assertion, evaluated at a named checkpoint or at
// the end of the run (the default).
type AssertSpec struct {
	Type string
	// At anchors the assertion: "" / "end", or a checkpoint name.
	At string
	// Node selects engines for stats assertions: a node id ("3"), or
	// one of "sum", "max", "all" (all = the predicate must hold on
	// every node). Rail likewise for fault assertions ("sum" allowed).
	Node string
	Rail string
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

// label renders an assertion compactly for reports.
func (a AssertSpec) label() string {
	switch a.Type {
	case AssertStats:
		return fmt.Sprintf("stats[%s] %s %s %v", a.Node, a.Field, a.Op, a.Value)
	case AssertFaults:
		return fmt.Sprintf("faults[%s] %s %s %v", a.Rail, a.Field, a.Op, a.Value)
	case AssertCompletion:
		who := a.Phase
		if who == "" {
			who = "run"
		}
		s := "completion " + who
		if a.Min > 0 {
			s += fmt.Sprintf(" >= %v", a.Min)
		}
		if a.Max > 0 {
			s += fmt.Sprintf(" <= %v", a.Max)
		}
		return s
	case AssertIntegrity:
		return "integrity"
	case AssertPhaseOrder:
		return fmt.Sprintf("order %s -> %s", a.Before, a.After)
	}
	return a.Type
}

// Parse decodes one scenario document. The returned error wraps
// ErrSyntax or ErrSchema; semantic checks (targets, overlaps,
// checkpoints) live in Validate, which Load runs as well.
func Parse(src []byte) (*Scenario, error) {
	tree, err := parseYAML(src)
	if err != nil {
		return nil, err
	}
	root, ok := tree.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("%w: top level must be a mapping", ErrSchema)
	}
	d := &decoder{}
	sc := &Scenario{}
	d.strictKeys("", root, "name", "description", "cluster", "tenants", "queue", "phases", "events", "assertions")
	sc.Name = d.str(root, "name", "")
	sc.Description = d.str(root, "description", "")
	sc.Cluster = d.cluster(d.child(root, "cluster"))
	for i, item := range d.list(root, "tenants") {
		path := fmt.Sprintf("tenants[%d]", i)
		m, ok := item.(map[string]any)
		if !ok {
			d.failf(ErrSchema, "%s: expected a mapping", path)
			continue
		}
		d.strictKeys(path, m, "name", "weight", "class")
		sc.Tenants = append(sc.Tenants, TenantSpec{
			Name:   d.str(m, "name", ""),
			Weight: d.integer(m, "weight", 1),
			Class:  d.str(m, "class", "normal"),
		})
	}
	if qm := d.child(root, "queue"); qm != nil {
		d.strictKeys("queue", qm, "node", "capacity", "workers", "aging")
		sc.Queue = &QueueSpec{
			Node:     d.integer(qm, "node", 0),
			Capacity: d.integer(qm, "capacity", 0),
			Workers:  d.integer(qm, "workers", 0),
			Aging:    d.duration(qm, "aging", 0),
		}
	}
	for i, item := range d.list(root, "phases") {
		p := d.phase(fmt.Sprintf("phases[%d]", i), item)
		p.index = i
		if p.Name == "" {
			p.Name = fmt.Sprintf("phase%d", i)
		}
		sc.Phases = append(sc.Phases, p)
	}
	for i, item := range d.list(root, "events") {
		sc.Events = append(sc.Events, d.event(fmt.Sprintf("events[%d]", i), item))
	}
	for i, item := range d.list(root, "assertions") {
		sc.Assertions = append(sc.Assertions, d.assert(fmt.Sprintf("assertions[%d]", i), item))
	}
	if d.err != nil {
		return nil, d.err
	}
	if sc.Name == "" {
		return nil, fmt.Errorf("%w: missing required field \"name\"", ErrSchema)
	}
	return sc, nil
}

// decoder walks the generic tree with dotted-path error context. The
// first error wins; subsequent lookups keep running so a single Parse
// call never dereferences nil unexpectedly.
type decoder struct {
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *decoder) failf(base error, format string, args ...any) {
	d.fail(fmt.Errorf("%w: %s", base, fmt.Sprintf(format, args...)))
}

// strictKeys rejects unknown fields — a typo'd key must not silently
// deconfigure a scenario.
func (d *decoder) strictKeys(path string, m map[string]any, allowed ...string) {
	ok := make(map[string]bool, len(allowed))
	for _, k := range allowed {
		ok[k] = true
	}
	// Sorted so the reported unknown field is the same on every run.
	for _, k := range sortedKeys(m) {
		if !ok[k] {
			at := path
			if at == "" {
				at = "top level"
			}
			d.failf(ErrSchema, "%s: unknown field %q (known: %s)", at, k, strings.Join(allowed, ", "))
			return
		}
	}
}

func (d *decoder) child(m map[string]any, key string) map[string]any {
	v, ok := m[key]
	if !ok || v == nil {
		return nil
	}
	mm, ok := v.(map[string]any)
	if !ok {
		d.failf(ErrSchema, "%s: expected a mapping", key)
		return nil
	}
	return mm
}

func (d *decoder) list(m map[string]any, key string) []any {
	v, ok := m[key]
	if !ok || v == nil {
		return nil
	}
	l, ok := v.([]any)
	if !ok {
		d.failf(ErrSchema, "%s: expected a sequence", key)
		return nil
	}
	return l
}

func (d *decoder) str(m map[string]any, key, def string) string {
	v, ok := m[key]
	if !ok || v == nil {
		return def
	}
	s, ok := v.(string)
	if !ok {
		d.failf(ErrSchema, "%s: expected a string, got %T", key, v)
		return def
	}
	return s
}

func (d *decoder) boolean(m map[string]any, key string) bool {
	v, ok := m[key]
	if !ok || v == nil {
		return false
	}
	b, ok := v.(bool)
	if !ok {
		d.failf(ErrSchema, "%s: expected true/false, got %v", key, v)
		return false
	}
	return b
}

func (d *decoder) integer(m map[string]any, key string, def int) int {
	v, ok := m[key]
	if !ok || v == nil {
		return def
	}
	n, ok := v.(int64)
	if !ok {
		d.failf(ErrSchema, "%s: expected an integer, got %v", key, v)
		return def
	}
	return int(n)
}

func (d *decoder) float(m map[string]any, key string, def float64) float64 {
	v, ok := m[key]
	if !ok || v == nil {
		return def
	}
	switch n := v.(type) {
	case float64:
		return n
	case int64:
		return float64(n)
	}
	d.failf(ErrSchema, "%s: expected a number, got %v", key, v)
	return def
}

func (d *decoder) ints(m map[string]any, key string) []int {
	v, ok := m[key]
	if !ok || v == nil {
		return nil
	}
	l, ok := v.([]any)
	if !ok {
		d.failf(ErrSchema, "%s: expected a sequence of integers", key)
		return nil
	}
	out := make([]int, 0, len(l))
	for i, item := range l {
		n, ok := item.(int64)
		if !ok {
			d.failf(ErrSchema, "%s[%d]: expected an integer, got %v", key, i, item)
			return nil
		}
		out = append(out, int(n))
	}
	return out
}

func (d *decoder) strs(m map[string]any, key string) []string {
	v, ok := m[key]
	if !ok || v == nil {
		return nil
	}
	l, ok := v.([]any)
	if !ok {
		d.failf(ErrSchema, "%s: expected a sequence of strings", key)
		return nil
	}
	out := make([]string, 0, len(l))
	for i, item := range l {
		s, ok := item.(string)
		if !ok {
			d.failf(ErrSchema, "%s[%d]: expected a string, got %v", key, i, item)
			return nil
		}
		out = append(out, s)
	}
	return out
}

// duration parses a "<number><unit>" virtual-time scalar (ns, us, µs,
// ms, s). Plain numbers are rejected: a bare "100" is ambiguous and has
// bitten every timeline format that allowed it.
func (d *decoder) duration(m map[string]any, key string, def sim.Time) sim.Time {
	v, ok := m[key]
	if !ok || v == nil {
		return def
	}
	s, ok := v.(string)
	if !ok {
		d.failf(ErrSchema, "%s: expected a duration string like \"250us\", got %v", key, v)
		return def
	}
	t, err := ParseTime(s)
	if err != nil {
		d.failf(ErrSchema, "%s: %v", key, err)
		return def
	}
	return t
}

// ParseTime parses a virtual-time scalar: a decimal number immediately
// followed by one of ns, us, µs, ms, s.
func ParseTime(s string) (sim.Time, error) {
	units := []struct {
		suffix string
		mult   sim.Time
	}{
		{"ns", sim.Nanosecond},
		{"µs", sim.Microsecond},
		{"us", sim.Microsecond},
		{"ms", sim.Millisecond},
		{"s", sim.Second},
	}
	for _, u := range units {
		num, found := strings.CutSuffix(s, u.suffix)
		if !found || num == "" {
			continue
		}
		f, err := strconv.ParseFloat(num, 64)
		if err != nil || f < 0 || math.IsInf(f, 0) || math.IsNaN(f) {
			return 0, fmt.Errorf("bad duration %q", s)
		}
		return sim.Time(math.Round(f * float64(u.mult))), nil
	}
	return 0, fmt.Errorf("bad duration %q (want <number><ns|us|ms|s>)", s)
}

func (d *decoder) cluster(m map[string]any) ClusterSpec {
	c := ClusterSpec{Nodes: 2, Rails: []string{"mx10g"}, Engine: core.DefaultOptions()}
	if m == nil {
		return c
	}
	d.strictKeys("cluster", m, "nodes", "rails", "host", "engine", "faults")
	c.Nodes = d.integer(m, "nodes", 2)
	if rails := d.strs(m, "rails"); len(rails) > 0 {
		c.Rails = rails
	}
	if host := d.child(m, "host"); host != nil {
		d.strictKeys("cluster.host", host, "memcpy_bw")
		c.Host.MemcpyBandwidth = d.float(host, "memcpy_bw", 0)
	}
	if eng := d.child(m, "engine"); eng != nil {
		// Keys are the recorded personality's JSON names; the two software
		// overheads are the paper's measured constants, not scenario knobs.
		d.strictKeys("cluster.engine", eng,
			"strategy", "credits", "max_grants", "reliability",
			"retransmit_timeout", "retransmit_budget", "probe_budget",
			"anticipate", "flush_backlog", "body_chunk")
		o := &c.Engine
		o.Strategy = d.str(eng, "strategy", o.Strategy)
		o.Credits = d.integer(eng, "credits", 0)
		o.MaxGrants = d.integer(eng, "max_grants", 0)
		o.Reliability = d.boolean(eng, "reliability")
		o.RetransmitTimeout = d.duration(eng, "retransmit_timeout", 0)
		o.RetransmitBudget = d.integer(eng, "retransmit_budget", 0)
		o.ProbeBudget = d.integer(eng, "probe_budget", 0)
		o.Anticipate = d.boolean(eng, "anticipate")
		o.FlushBacklog = d.integer(eng, "flush_backlog", 0)
		o.BodyChunk = d.integer(eng, "body_chunk", 0)
	}
	if fl := d.child(m, "faults"); fl != nil {
		d.strictKeys("cluster.faults", fl, "seed", "rails")
		c.Faults = &simnet.FaultProfile{Seed: uint64(d.integer(fl, "seed", 0))}
		for i, item := range d.list(fl, "rails") {
			path := fmt.Sprintf("cluster.faults.rails[%d]", i)
			rm, ok := item.(map[string]any)
			if !ok {
				d.failf(ErrSchema, "%s: expected a mapping", path)
				continue
			}
			d.strictKeys(path, rm, "drop", "dup", "reorder", "outages")
			rf := simnet.RailFaults{
				DropProb:    d.float(rm, "drop", 0),
				DupProb:     d.float(rm, "dup", 0),
				ReorderProb: d.float(rm, "reorder", 0),
			}
			for j, o := range d.list(rm, "outages") {
				opath := fmt.Sprintf("%s.outages[%d]", path, j)
				om, ok := o.(map[string]any)
				if !ok {
					d.failf(ErrSchema, "%s: expected a mapping", opath)
					continue
				}
				d.strictKeys(opath, om, "at", "duration")
				rf.Outages = append(rf.Outages, simnet.Outage{
					At:       d.duration(om, "at", 0),
					Duration: d.duration(om, "duration", 0),
				})
			}
			c.Faults.Rails = append(c.Faults.Rails, rf)
		}
	}
	return c
}

func (d *decoder) phase(path string, item any) PhaseSpec {
	m, ok := item.(map[string]any)
	if !ok {
		d.failf(ErrSchema, "%s: expected a mapping", path)
		return PhaseSpec{}
	}
	d.strictKeys(path, m,
		"name", "kind", "at", "tenant", "nodes", "target", "senders",
		"msgs", "size", "count", "root", "drain_gap", "priority")
	return PhaseSpec{
		Name:     d.str(m, "name", ""),
		Kind:     d.str(m, "kind", ""),
		At:       d.duration(m, "at", 0),
		Tenant:   d.str(m, "tenant", ""),
		Nodes:    d.ints(m, "nodes"),
		Target:   d.integer(m, "target", 0),
		Senders:  d.ints(m, "senders"),
		Msgs:     d.integer(m, "msgs", 1),
		Size:     d.integer(m, "size", 0),
		Count:    d.integer(m, "count", 1),
		Root:     d.integer(m, "root", 0),
		DrainGap: d.duration(m, "drain_gap", 0),
		Priority: d.boolean(m, "priority"),
	}
}

func (d *decoder) event(path string, item any) EventSpec {
	m, ok := item.(map[string]any)
	if !ok {
		d.failf(ErrSchema, "%s: expected a mapping", path)
		return EventSpec{}
	}
	d.strictKeys(path, m,
		"at", "action", "name", "rail", "scale", "drop", "dup", "reorder",
		"node", "factor", "duration")
	return EventSpec{
		At:       d.duration(m, "at", 0),
		Action:   d.str(m, "action", ""),
		Name:     d.str(m, "name", ""),
		Rail:     d.integer(m, "rail", 0),
		Scale:    d.float(m, "scale", 0),
		Drop:     d.float(m, "drop", 0),
		Dup:      d.float(m, "dup", 0),
		Reorder:  d.float(m, "reorder", 0),
		Node:     d.integer(m, "node", 0),
		Factor:   d.float(m, "factor", 0),
		Duration: d.duration(m, "duration", 0),
	}
}

func (d *decoder) assert(path string, item any) AssertSpec {
	m, ok := item.(map[string]any)
	if !ok {
		d.failf(ErrSchema, "%s: expected a mapping", path)
		return AssertSpec{}
	}
	d.strictKeys(path, m,
		"type", "at", "node", "rail", "field", "op", "value",
		"phase", "max", "min", "before", "after")
	a := AssertSpec{
		Type:   d.str(m, "type", ""),
		At:     d.str(m, "at", ""),
		Field:  d.str(m, "field", ""),
		Op:     d.str(m, "op", ""),
		Value:  d.float(m, "value", 0),
		Phase:  d.str(m, "phase", ""),
		Max:    d.duration(m, "max", 0),
		Min:    d.duration(m, "min", 0),
		Before: d.str(m, "before", ""),
		After:  d.str(m, "after", ""),
	}
	// node / rail selectors accept an integer or a selector word. Fixed
	// order, so a scenario bad in both reports the same failure first.
	for _, sel := range []struct {
		key string
		dst *string
	}{{"node", &a.Node}, {"rail", &a.Rail}} {
		key, dst := sel.key, sel.dst
		switch v := m[key].(type) {
		case nil:
		case int64:
			*dst = strconv.FormatInt(v, 10)
		case string:
			*dst = v
		default:
			d.failf(ErrSchema, "%s.%s: expected a node id or selector, got %v", path, key, v)
		}
	}
	return a
}
