package scenario

import (
	"fmt"
	"slices"
	"strconv"

	"nmad/internal/queue"
	"nmad/internal/simnet"
	"nmad/sched"
)

// Validate runs every semantic check over a parsed scenario and returns
// ALL violations, not just the first — `nmad-sim validate` reports the
// whole damage of a file in one pass. Each returned error wraps one of
// the package sentinels (ErrBadValue, ErrUnknownPhase, ErrUnknownAction,
// ErrUnknownAssert, ErrBadTarget, ErrPhaseOverlap, ErrUnknownCheckpoint).
func Validate(sc *Scenario) []error {
	var errs []error
	bad := func(base error, format string, args ...any) {
		errs = append(errs, fmt.Errorf("%w: %s", base, fmt.Sprintf(format, args...)))
	}

	c := sc.Cluster
	if c.Nodes < 2 {
		bad(ErrBadValue, "cluster.nodes: need at least 2 nodes, got %d", c.Nodes)
	}
	if len(c.Rails) == 0 {
		bad(ErrBadValue, "cluster.rails: need at least one rail")
	}
	for i, name := range c.Rails {
		if _, ok := simnet.ProfileByName(name); !ok {
			bad(ErrBadValue, "cluster.rails[%d]: unknown profile %q (known: mx10g, qsnet2, gm2000, sisci, tcp)", i, name)
		}
	}
	if bw := c.Host.MemcpyBandwidth; bw < 0 {
		bad(ErrBadValue, "cluster.host.memcpy_bw: must be positive, got %v", bw)
	}
	if s := c.Engine.Strategy; s != "" && !slices.Contains(sched.Names(), s) {
		bad(ErrBadValue, "cluster.engine.strategy: unknown strategy %q (known: %v)", s, sched.Names())
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"credits", c.Engine.Credits},
		{"max_grants", c.Engine.MaxGrants},
		{"retransmit_budget", c.Engine.RetransmitBudget},
		{"probe_budget", c.Engine.ProbeBudget},
		{"flush_backlog", c.Engine.FlushBacklog},
		{"body_chunk", c.Engine.BodyChunk},
	} {
		if f.v < 0 {
			bad(ErrBadValue, "cluster.engine.%s: must be >= 0, got %d", f.name, f.v)
		}
	}
	if c.Faults != nil {
		if len(c.Faults.Rails) > len(c.Rails) {
			bad(ErrBadTarget, "cluster.faults.rails: %d fault entries on a %d-rail cluster",
				len(c.Faults.Rails), len(c.Rails))
		}
		for i, r := range c.Faults.Rails {
			for _, p := range []struct {
				name string
				v    float64
			}{{"drop", r.DropProb}, {"dup", r.DupProb}, {"reorder", r.ReorderProb}} {
				if p.v < 0 || p.v > 1 {
					bad(ErrBadValue, "cluster.faults.rails[%d].%s: probability %v outside [0,1]", i, p.name, p.v)
				}
			}
			for j, o := range r.Outages {
				if o.Duration < 0 {
					bad(ErrBadValue, "cluster.faults.rails[%d].outages[%d]: negative duration", i, j)
				}
			}
		}
	}

	node := func(path string, id int) {
		if id < 0 || id >= c.Nodes {
			bad(ErrBadTarget, "%s: node %d outside the %d-node cluster", path, id, c.Nodes)
		}
	}
	rail := func(path string, id int) {
		if id < 0 || id >= len(c.Rails) {
			bad(ErrBadTarget, "%s: rail %d outside the %d-rail cluster", path, id, len(c.Rails))
		}
	}

	tenants := map[string]int{}
	for i, t := range sc.Tenants {
		path := fmt.Sprintf("tenants[%d] (%s)", i, t.Name)
		if t.Name == "" {
			bad(ErrBadValue, "%s: a tenant needs a name", path)
		} else if prev, dup := tenants[t.Name]; dup {
			bad(ErrBadValue, "%s: name already used by tenants[%d]", path, prev)
		}
		tenants[t.Name] = i
		if t.Weight < 1 {
			bad(ErrBadValue, "%s: weight must be >= 1, got %d", path, t.Weight)
		}
		if _, ok := queue.ClassByName(t.Class); !ok {
			bad(ErrBadValue, "%s: unknown class %q (known: bulk, normal, latency)", path, t.Class)
		}
	}
	if sc.Queue != nil {
		if len(sc.Tenants) == 0 {
			bad(ErrBadValue, "queue: a queue block needs a tenants block to serve")
		}
		node("queue.node", sc.Queue.Node)
		if sc.Queue.Capacity < 0 || sc.Queue.Workers < 0 {
			bad(ErrBadValue, "queue: capacity and workers must be >= 0")
		}
	}

	if len(sc.Phases) == 0 {
		bad(ErrBadValue, "phases: a scenario needs at least one phase")
	}
	names := map[string]int{}
	for i, p := range sc.Phases {
		path := fmt.Sprintf("phases[%d] (%s)", i, p.Name)
		if prev, dup := names[p.Name]; dup {
			bad(ErrPhaseOverlap, "%s: name already used by phases[%d]", path, prev)
		}
		names[p.Name] = i
		if i > 0 && p.At <= sc.Phases[i-1].At {
			bad(ErrPhaseOverlap,
				"%s: starts at %v, not after phases[%d] (%s) at %v — declare phases in strictly increasing start order",
				path, p.At, i-1, sc.Phases[i-1].Name, sc.Phases[i-1].At)
		}
		for j, n := range p.Nodes {
			node(fmt.Sprintf("%s.nodes[%d]", path, j), n)
		}
		if p.Size < 0 || p.Msgs < 0 || p.Count < 1 {
			bad(ErrBadValue, "%s: size/msgs must be >= 0 and count >= 1", path)
		}
		// Without a tenants block the tenant key is a free-form report
		// label; with one, it routes the phase through the job queue and
		// must resolve.
		if len(sc.Tenants) > 0 && p.Tenant != "" {
			if _, ok := tenants[p.Tenant]; !ok {
				bad(ErrBadTarget, "%s: no tenant named %q", path, p.Tenant)
			}
		}
		switch p.Kind {
		case PhasePingPong:
			if len(p.Nodes) != 2 {
				bad(ErrBadValue, "%s: pingpong needs exactly 2 nodes, got %d", path, len(p.Nodes))
			} else if p.Nodes[0] == p.Nodes[1] {
				bad(ErrBadValue, "%s: pingpong peers must differ", path)
			}
		case PhaseRing:
			if n := len(p.Nodes); n != 0 && n < 2 {
				bad(ErrBadValue, "%s: a ring needs at least 2 members", path)
			}
		case PhaseIncast:
			node(path+".target", p.Target)
			for j, s := range p.Senders {
				spath := fmt.Sprintf("%s.senders[%d]", path, j)
				node(spath, s)
				if s == p.Target {
					bad(ErrBadValue, "%s: the incast target cannot send to itself", spath)
				}
			}
		case PhaseComposite:
			if len(p.Nodes) != 2 {
				bad(ErrBadValue, "%s: composite needs exactly 2 nodes, got %d", path, len(p.Nodes))
			} else if p.Nodes[0] == p.Nodes[1] {
				bad(ErrBadValue, "%s: composite peers must differ", path)
			}
		case PhaseBarrier, PhaseAllgather, PhaseAllreduce, PhaseAlltoall:
			if len(p.Nodes) != 0 {
				bad(ErrBadValue, "%s: collectives span every node; drop the nodes field", path)
			}
		case PhaseBcast:
			node(path+".root", p.Root)
			if len(p.Nodes) != 0 {
				bad(ErrBadValue, "%s: collectives span every node; drop the nodes field", path)
			}
		case "":
			bad(ErrUnknownPhase, "%s: missing kind", path)
		default:
			bad(ErrUnknownPhase, "%s: %q (known: pingpong, ring, incast, composite, barrier, bcast, allgather, allreduce, alltoall)",
				path, p.Kind)
		}
	}

	checkpoints := map[string]bool{}
	for i, e := range sc.Events {
		path := fmt.Sprintf("events[%d] (%s at %v)", i, e.Action, e.At)
		switch e.Action {
		case ActionDegradeRail:
			rail(path, e.Rail)
			if e.Scale <= 0 || e.Scale > 1 {
				bad(ErrBadValue, "%s: scale %v outside (0,1]", path, e.Scale)
			}
		case ActionRestoreRail:
			rail(path, e.Rail)
		case ActionSetFaults:
			rail(path, e.Rail)
			for _, p := range []struct {
				name string
				v    float64
			}{{"drop", e.Drop}, {"dup", e.Dup}, {"reorder", e.Reorder}} {
				if p.v < 0 || p.v > 1 {
					bad(ErrBadValue, "%s: %s probability %v outside [0,1]", path, p.name, p.v)
				}
			}
		case ActionRailOutage:
			rail(path, e.Rail)
			if e.Duration < 0 {
				bad(ErrBadValue, "%s: negative duration", path)
			}
		case ActionSlowNode:
			node(path, e.Node)
			if e.Factor < 1 {
				bad(ErrBadValue, "%s: factor %v must be >= 1", path, e.Factor)
			}
		case ActionRestoreNode:
			node(path, e.Node)
		case ActionSqueezeCredits:
			node(path, e.Node)
			if e.Duration <= 0 {
				bad(ErrBadValue, "%s: squeeze_credits needs a positive duration (a permanent squeeze deadlocks the run)", path)
			}
		case ActionCheckpoint:
			if e.Name == "" {
				bad(ErrBadValue, "%s: a checkpoint needs a name", path)
			} else if checkpoints[e.Name] {
				bad(ErrBadValue, "%s: duplicate checkpoint %q", path, e.Name)
			}
			checkpoints[e.Name] = true
		case "":
			bad(ErrUnknownAction, "%s: missing action", path)
		default:
			bad(ErrUnknownAction,
				"%s: %q (known: degrade_rail, restore_rail, set_faults, rail_outage, slow_node, restore_node, squeeze_credits, checkpoint)",
				path, e.Action)
		}
	}

	for i, a := range sc.Assertions {
		path := fmt.Sprintf("assertions[%d] (%s)", i, a.label())
		if a.At != "" && a.At != "end" && !checkpoints[a.At] {
			bad(ErrUnknownCheckpoint, "%s: no checkpoint event declares %q", path, a.At)
		}
		checkOp := func() {
			switch a.Op {
			case "<", "<=", ">", ">=", "==", "!=":
			case "":
				bad(ErrBadValue, "%s: missing op", path)
			default:
				bad(ErrBadValue, "%s: unknown op %q (want < <= > >= == !=)", path, a.Op)
			}
		}
		switch a.Type {
		case AssertStats:
			if _, ok := statsFields[a.Field]; !ok {
				bad(ErrBadValue, "%s: unknown stats field %q (known: %v)", path, a.Field, sortedKeys(statsFields))
			}
			switch a.Node {
			case "", "sum", "max", "all":
			default:
				id, err := parseID(a.Node)
				if err != nil {
					bad(ErrBadValue, "%s: node selector %q (want a node id, sum, max or all)", path, a.Node)
				} else {
					node(path+".node", id)
				}
			}
			checkOp()
		case AssertFaults:
			if _, ok := faultFields[a.Field]; !ok {
				bad(ErrBadValue, "%s: unknown faults field %q (known: %v)", path, a.Field, sortedKeys(faultFields))
			}
			switch a.Rail {
			case "", "sum":
			default:
				id, err := parseID(a.Rail)
				if err != nil {
					bad(ErrBadValue, "%s: rail selector %q (want a rail id or sum)", path, a.Rail)
				} else {
					rail(path+".rail", id)
				}
			}
			checkOp()
		case AssertCompletion:
			if a.Phase != "" {
				if _, ok := names[a.Phase]; !ok {
					bad(ErrBadTarget, "%s: no phase named %q", path, a.Phase)
				}
			}
			if a.Max == 0 && a.Min == 0 {
				bad(ErrBadValue, "%s: a completion assertion needs max and/or min", path)
			}
			if a.Max > 0 && a.Min > a.Max {
				bad(ErrBadValue, "%s: min %v exceeds max %v", path, a.Min, a.Max)
			}
		case AssertIntegrity:
			// No parameters: every phase verifies its payloads; the
			// assertion demands zero corruption.
		case AssertPhaseOrder:
			for _, ref := range []struct{ field, name string }{{"before", a.Before}, {"after", a.After}} {
				if ref.name == "" {
					bad(ErrBadValue, "%s: missing %s phase", path, ref.field)
				} else if _, ok := names[ref.name]; !ok {
					bad(ErrBadTarget, "%s: no phase named %q", path, ref.name)
				}
			}
		case "":
			bad(ErrUnknownAssert, "%s: missing type", path)
		default:
			bad(ErrUnknownAssert, "%s: %q (known: stats, faults, completion, integrity, phase_order)", path, a.Type)
		}
	}
	return errs
}

func parseID(s string) (int, error) {
	return strconv.Atoi(s)
}
