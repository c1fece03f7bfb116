package scenario

import (
	"fmt"
	"reflect"
	"slices"
	"strings"

	"nmad/internal/queue"
	"nmad/internal/simnet"
	"nmad/sched"
)

// What Run builds and allocates grows with these fields, so a file that
// validates is bounded in them: the cluster size, a phase's message size
// in bytes, its message and iteration counts, and the bytes one
// participant moves in the phase (size x msgs x count).
const (
	maxNodes  = 4096
	maxSize   = 1 << 28
	maxMsgs   = 1 << 20
	maxCount  = 1 << 20
	maxVolume = int64(1) << 32
)

// validator collects the violations of one scenario, with what the
// per-kind, per-action and per-type checks need to resolve references.
type validator struct {
	sc          *Scenario
	errs        []error
	phases      map[string]int  // phase name -> index
	checkpoints map[string]bool // names declared by checkpoint events so far
}

func (v *validator) bad(base error, format string, args ...any) {
	v.errs = append(v.errs, fmt.Errorf("%w: %s", base, fmt.Sprintf(format, args...)))
}

func (v *validator) node(path string, id int) {
	if n := v.sc.Cluster.Nodes; id < 0 || id >= n {
		v.bad(ErrBadTarget, "%s: node %d outside the %d-node cluster", path, id, n)
	}
}

func (v *validator) rail(path string, id int) {
	if n := len(v.sc.Cluster.Rails); id < 0 || id >= n {
		v.bad(ErrBadTarget, "%s: rail %d outside the %d-rail cluster", path, id, n)
	}
}

// probs vets the three fault probabilities of a rail, as cluster.faults
// and the set_faults event both carry them.
func (v *validator) probs(path string, drop, dup, reorder float64) {
	for _, p := range []struct {
		name string
		v    float64
	}{{"drop", drop}, {"dup", dup}, {"reorder", reorder}} {
		if p.v < 0 || p.v > 1 {
			v.bad(ErrBadValue, "%s: %s probability %v outside [0,1]", path, p.name, p.v)
		}
	}
}

// unknown reports a name that is not a row of its vocabulary table.
func unknown[T any](v *validator, base error, path, what, name string, table map[string]T) {
	if name == "" {
		v.bad(base, "%s: missing %s", path, what)
		return
	}
	v.bad(base, "%s: %q (known: %s)", path, name, strings.Join(sortedKeys(table), ", "))
}

// Validate runs every semantic check over a parsed scenario and returns
// ALL violations, not just the first — `nmad-sim validate` reports the
// whole damage of a file in one pass. Each returned error wraps one of
// the package sentinels (ErrBadValue, ErrUnknownPhase, ErrUnknownAction,
// ErrUnknownAssert, ErrBadTarget, ErrPhaseOverlap, ErrUnknownCheckpoint).
func Validate(sc *Scenario) []error {
	v := &validator{sc: sc, phases: map[string]int{}, checkpoints: map[string]bool{}}

	c := &sc.Cluster
	if c.Nodes < 2 || c.Nodes > maxNodes {
		v.bad(ErrBadValue, "cluster.nodes: need 2 to %d nodes, got %d", maxNodes, c.Nodes)
	}
	if len(c.Rails) == 0 {
		v.bad(ErrBadValue, "cluster.rails: need at least one rail")
	}
	for i, name := range c.Rails {
		if _, ok := simnet.ProfileByName(name); !ok {
			var known []string
			for _, p := range simnet.Profiles() {
				known = append(known, p.Name)
			}
			v.bad(ErrBadValue, "cluster.rails[%d]: unknown profile %q (known: %s)", i, name, strings.Join(known, ", "))
		}
	}
	if bw := c.Host.MemcpyBandwidth; bw < 0 {
		v.bad(ErrBadValue, "cluster.host.memcpy_bw: must be positive, got %v", bw)
	}
	if s := c.Engine.Strategy; s != "" && !slices.Contains(sched.Names(), s) {
		v.bad(ErrBadValue, "cluster.engine.strategy: unknown strategy %q (known: %v)", s, sched.Names())
	}
	// Every numeric engine option is a size, a count or a duration.
	eng := reflect.ValueOf(&c.Engine).Elem()
	sk := schema[eng.Type()]
	for i, key := range sk.keys {
		if f := eng.Field(sk.index[i]); f.CanInt() && f.Int() < 0 {
			v.bad(ErrBadValue, "cluster.engine.%s: must be >= 0, got %d", key, f.Int())
		}
	}
	if c.Faults != nil {
		if len(c.Faults.Rails) > len(c.Rails) {
			v.bad(ErrBadTarget, "cluster.faults.rails: %d fault entries on a %d-rail cluster",
				len(c.Faults.Rails), len(c.Rails))
		}
		for i, r := range c.Faults.Rails {
			v.probs(fmt.Sprintf("cluster.faults.rails[%d]", i), r.DropProb, r.DupProb, r.ReorderProb)
			for j, o := range r.Outages {
				if o.Duration < 0 {
					v.bad(ErrBadValue, "cluster.faults.rails[%d].outages[%d]: negative duration", i, j)
				}
			}
		}
	}

	tenants := map[string]int{}
	for i, t := range sc.Tenants {
		path := fmt.Sprintf("tenants[%d] (%s)", i, t.Name)
		if t.Name == "" {
			v.bad(ErrBadValue, "%s: a tenant needs a name", path)
		} else if prev, dup := tenants[t.Name]; dup {
			v.bad(ErrBadValue, "%s: name already used by tenants[%d]", path, prev)
		}
		tenants[t.Name] = i
		if t.Weight < 1 {
			v.bad(ErrBadValue, "%s: weight must be >= 1, got %d", path, t.Weight)
		}
		if _, ok := queue.ClassByName(t.Class); !ok {
			v.bad(ErrBadValue, "%s: unknown class %q (known: %s)", path, t.Class, strings.Join(queue.ClassNames(), ", "))
		}
	}
	if sc.Queue != nil {
		if len(sc.Tenants) == 0 {
			v.bad(ErrBadValue, "queue: a queue block needs a tenants block to serve")
		}
		v.node("queue.node", sc.Queue.Node)
		if sc.Queue.Capacity < 0 || sc.Queue.Workers < 0 {
			v.bad(ErrBadValue, "queue: capacity and workers must be >= 0")
		}
	}

	if len(sc.Phases) == 0 {
		v.bad(ErrBadValue, "phases: a scenario needs at least one phase")
	}
	for i := range sc.Phases {
		p := &sc.Phases[i]
		path := fmt.Sprintf("phases[%d] (%s)", i, p.Name)
		if prev, dup := v.phases[p.Name]; dup {
			v.bad(ErrPhaseOverlap, "%s: name already used by phases[%d]", path, prev)
		}
		v.phases[p.Name] = i
		if i > 0 && p.At <= sc.Phases[i-1].At {
			v.bad(ErrPhaseOverlap,
				"%s: starts at %v, not after phases[%d] (%s) at %v — declare phases in strictly increasing start order",
				path, p.At, i-1, sc.Phases[i-1].Name, sc.Phases[i-1].At)
		}
		for j, n := range p.Nodes {
			v.node(fmt.Sprintf("%s.nodes[%d]", path, j), n)
		}
		switch {
		case p.Size < 0 || p.Msgs < 0 || p.Count < 1:
			v.bad(ErrBadValue, "%s: size/msgs must be >= 0 and count >= 1", path)
		case p.Size > maxSize || p.Msgs > maxMsgs || p.Count > maxCount:
			v.bad(ErrBadValue, "%s: size, msgs and count are bounded by %d, %d and %d", path, maxSize, maxMsgs, maxCount)
		case int64(max(p.Size, 1))*int64(max(p.Msgs, 1)) > maxVolume/int64(p.Count):
			v.bad(ErrBadValue, "%s: size x msgs x count is bounded by %d bytes", path, maxVolume)
		}
		// Without a tenants block the tenant key is a free-form report
		// label; with one, it routes the phase through the job queue and
		// must resolve.
		if len(sc.Tenants) > 0 && p.Tenant != "" {
			if _, ok := tenants[p.Tenant]; !ok {
				v.bad(ErrBadTarget, "%s: no tenant named %q", path, p.Tenant)
			}
		}
		kind, ok := phaseKinds[p.Kind]
		if !ok {
			unknown(v, ErrUnknownPhase, path, "kind", p.Kind, phaseKinds)
			continue
		}
		if kind.collective && len(p.Nodes) != 0 {
			v.bad(ErrBadValue, "%s: collectives span every node; drop the nodes field", path)
		}
		if kind.check != nil {
			kind.check(v, path, p)
		}
	}

	for i, e := range sc.Events {
		path := fmt.Sprintf("events[%d] (%s at %v)", i, e.Action, e.At)
		if action, ok := eventActions[e.Action]; ok {
			action.check(v, path, e)
		} else {
			unknown(v, ErrUnknownAction, path, "action", e.Action, eventActions)
		}
	}

	for i, a := range sc.Assertions {
		path := fmt.Sprintf("assertions[%d] (%s)", i, a.label())
		if a.At != "" && a.At != "end" && !v.checkpoints[a.At] {
			v.bad(ErrUnknownCheckpoint, "%s: no checkpoint event declares %q", path, a.At)
		}
		if typ, ok := assertTypes[a.Type]; !ok {
			unknown(v, ErrUnknownAssert, path, "type", a.Type, assertTypes)
		} else if typ.check != nil {
			typ.check(v, path, a)
		}
	}
	return v.errs
}

// checkPair: a pingpong or a composite runs between two distinct nodes.
func checkPair(v *validator, path string, p *PhaseSpec) {
	if len(p.Nodes) != 2 {
		v.bad(ErrBadValue, "%s: %s needs exactly 2 nodes, got %d", path, p.Kind, len(p.Nodes))
	} else if p.Nodes[0] == p.Nodes[1] {
		v.bad(ErrBadValue, "%s: %s peers must differ", path, p.Kind)
	}
}

func checkRing(v *validator, path string, p *PhaseSpec) {
	if len(p.Nodes) == 1 {
		v.bad(ErrBadValue, "%s: a ring needs at least 2 members", path)
	}
	for j, n := range p.Nodes {
		if slices.Contains(p.Nodes[:j], n) {
			v.bad(ErrBadValue, "%s.nodes[%d]: node %d is already a ring member", path, j, n)
		}
	}
}

func checkIncast(v *validator, path string, p *PhaseSpec) {
	v.node(path+".target", p.Target)
	for j, s := range p.Senders {
		spath := fmt.Sprintf("%s.senders[%d]", path, j)
		v.node(spath, s)
		if s == p.Target {
			v.bad(ErrBadValue, "%s: the incast target cannot send to itself", spath)
		}
	}
}

func checkBcast(v *validator, path string, p *PhaseSpec) {
	v.node(path+".root", p.Root)
}
