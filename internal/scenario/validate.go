package scenario

import (
	"fmt"
	"reflect"
	"slices"
	"strconv"
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

// loc is where a check looks, as the messages name it: an entry of a
// section ("phases[2] (warmup)"), possibly narrowed to one of its fields
// (".target") or to one element of a list field (".senders[1]"). The
// checks hand it on by value and a message formats it (String), so a file
// with no problem builds no path string.
type loc struct {
	section string // "phases", "events", ...; the whole path when index < 0
	index   int
	entry   any    // *TenantSpec, *PhaseSpec, *EventSpec or *AssertSpec: what names the entry; nil: nothing
	sub     string // the field narrowed to, or ""
	subIdx  int    // the element of a list field, or -1
}

func entryLoc(section string, index int, entry any) loc {
	return loc{section: section, index: index, entry: entry}
}

// field narrows l to one field of its entry, elem to element i of a
// list field.
func (l loc) field(name string) loc       { l.sub, l.subIdx = name, -1; return l }
func (l loc) elem(name string, i int) loc { l.sub, l.subIdx = name, i; return l }

func (l loc) String() string {
	s := l.section
	if l.index >= 0 {
		s += "[" + strconv.Itoa(l.index) + "]"
	}
	switch e := l.entry.(type) {
	case *TenantSpec:
		s += " (" + e.Name + ")"
	case *PhaseSpec:
		s += " (" + e.Name + ")"
	case *EventSpec:
		s += fmt.Sprintf(" (%s at %v)", e.Action, e.At)
	case *AssertSpec:
		s += " (" + e.label() + ")"
	}
	if l.sub != "" {
		s += "." + l.sub
		if l.subIdx >= 0 {
			s += "[" + strconv.Itoa(l.subIdx) + "]"
		}
	}
	return s
}

func (v *validator) node(at loc, id int) {
	if n := v.sc.Cluster.Nodes; id < 0 || id >= n {
		v.bad(ErrBadTarget, "%s: node %d outside the %d-node cluster", at, id, n)
	}
}

func (v *validator) rail(at loc, id int) {
	if n := len(v.sc.Cluster.Rails); id < 0 || id >= n {
		v.bad(ErrBadTarget, "%s: rail %d outside the %d-rail cluster", at, id, n)
	}
}

// probs vets the three fault probabilities of a rail, as cluster.faults
// and the set_faults event both carry them.
func (v *validator) probs(at loc, drop, dup, reorder float64) {
	for _, p := range []struct {
		name string
		v    float64
	}{{"drop", drop}, {"dup", dup}, {"reorder", reorder}} {
		if p.v < 0 || p.v > 1 {
			v.bad(ErrBadValue, "%s: %s probability %v outside [0,1]", at, p.name, p.v)
		}
	}
}

// unknown reports a name that is not a row of its vocabulary table.
func unknown[T any](v *validator, base error, at loc, what, name string, table map[string]T) {
	if name == "" {
		v.bad(base, "%s: missing %s", at, what)
		return
	}
	v.bad(base, "%s: %q (known: %s)", at, name, strings.Join(sortedKeys(table), ", "))
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
			v.probs(entryLoc("cluster.faults.rails", i, nil), r.DropProb, r.DupProb, r.ReorderProb)
			for j, o := range r.Outages {
				if o.At < 0 || o.Duration <= 0 {
					v.bad(ErrBadValue, "cluster.faults.rails[%d].outages[%d]: at %v for %v is not a window (want at >= 0, duration > 0)", i, j, o.At, o.Duration)
				}
			}
		}
	}

	tenants := map[string]int{}
	for i, t := range sc.Tenants {
		at := entryLoc("tenants", i, &sc.Tenants[i])
		if t.Name == "" {
			v.bad(ErrBadValue, "%s: a tenant needs a name", at)
		} else if prev, dup := tenants[t.Name]; dup {
			v.bad(ErrBadValue, "%s: name already used by tenants[%d]", at, prev)
		}
		tenants[t.Name] = i
		if t.Weight < 1 {
			v.bad(ErrBadValue, "%s: weight must be >= 1, got %d", at, t.Weight)
		}
		if _, ok := queue.ClassByName(t.Class); !ok {
			v.bad(ErrBadValue, "%s: unknown class %q (known: %s)", at, t.Class, strings.Join(queue.ClassNames(), ", "))
		}
	}
	if sc.Queue != nil {
		if len(sc.Tenants) == 0 {
			v.bad(ErrBadValue, "queue: a queue block needs a tenants block to serve")
		}
		v.node(loc{section: "queue.node", index: -1}, sc.Queue.Node)
		if sc.Queue.Capacity < 0 || sc.Queue.Workers < 0 {
			v.bad(ErrBadValue, "queue: capacity and workers must be >= 0")
		}
	}

	if len(sc.Phases) == 0 {
		v.bad(ErrBadValue, "phases: a scenario needs at least one phase")
	}
	for i := range sc.Phases {
		p := &sc.Phases[i]
		at := entryLoc("phases", i, p)
		if prev, dup := v.phases[p.Name]; dup {
			v.bad(ErrPhaseOverlap, "%s: name already used by phases[%d]", at, prev)
		}
		v.phases[p.Name] = i
		if i > 0 && p.At <= sc.Phases[i-1].At {
			v.bad(ErrPhaseOverlap,
				"%s: starts at %v, not after phases[%d] (%s) at %v — declare phases in strictly increasing start order",
				at, p.At, i-1, sc.Phases[i-1].Name, sc.Phases[i-1].At)
		}
		for j, n := range p.Nodes {
			v.node(at.elem("nodes", j), n)
		}
		switch {
		case p.Size < 0 || p.Msgs < 0 || p.Count < 1:
			v.bad(ErrBadValue, "%s: size/msgs must be >= 0 and count >= 1", at)
		case p.Size > maxSize || p.Msgs > maxMsgs || p.Count > maxCount:
			v.bad(ErrBadValue, "%s: size, msgs and count are bounded by %d, %d and %d", at, maxSize, maxMsgs, maxCount)
		case int64(max(p.Size, 1))*int64(max(p.Msgs, 1)) > maxVolume/int64(p.Count):
			v.bad(ErrBadValue, "%s: size x msgs x count is bounded by %d bytes", at, maxVolume)
		}
		// Without a tenants block the tenant key is a free-form report
		// label; with one, it routes the phase through the job queue and
		// must resolve.
		if len(sc.Tenants) > 0 && p.Tenant != "" {
			if _, ok := tenants[p.Tenant]; !ok {
				v.bad(ErrBadTarget, "%s: no tenant named %q", at, p.Tenant)
			}
		}
		kind, ok := phaseKinds[p.Kind]
		if !ok {
			unknown(v, ErrUnknownPhase, at, "kind", p.Kind, phaseKinds)
			continue
		}
		if kind.collective && len(p.Nodes) != 0 {
			v.bad(ErrBadValue, "%s: collectives span every node; drop the nodes field", at)
		}
		if kind.check != nil {
			kind.check(v, at, p)
		}
	}

	for i, e := range sc.Events {
		at := entryLoc("events", i, &sc.Events[i])
		if action, ok := eventActions[e.Action]; ok {
			action.check(v, at, e)
		} else {
			unknown(v, ErrUnknownAction, at, "action", e.Action, eventActions)
		}
	}

	for i, a := range sc.Assertions {
		at := entryLoc("assertions", i, &sc.Assertions[i])
		if a.At != "" && a.At != "end" && !v.checkpoints[a.At] {
			v.bad(ErrUnknownCheckpoint, "%s: no checkpoint event declares %q", at, a.At)
		}
		if typ, ok := assertTypes[a.Type]; !ok {
			unknown(v, ErrUnknownAssert, at, "type", a.Type, assertTypes)
		} else if typ.check != nil {
			typ.check(v, at, a)
		}
	}
	return v.errs
}

// checkPair: a pingpong or a composite runs between two distinct nodes.
func checkPair(v *validator, at loc, p *PhaseSpec) {
	if len(p.Nodes) != 2 {
		v.bad(ErrBadValue, "%s: %s needs exactly 2 nodes, got %d", at, p.Kind, len(p.Nodes))
	} else if p.Nodes[0] == p.Nodes[1] {
		v.bad(ErrBadValue, "%s: %s peers must differ", at, p.Kind)
	}
}

func checkRing(v *validator, at loc, p *PhaseSpec) {
	if len(p.Nodes) == 1 {
		v.bad(ErrBadValue, "%s: a ring needs at least 2 members", at)
	}
	for j, n := range p.Nodes {
		if slices.Contains(p.Nodes[:j], n) {
			v.bad(ErrBadValue, "%s: node %d is already a ring member", at.elem("nodes", j), n)
		}
	}
}

func checkIncast(v *validator, at loc, p *PhaseSpec) {
	v.node(at.field("target"), p.Target)
	for j, s := range p.Senders {
		v.node(at.elem("senders", j), s)
		if s == p.Target {
			v.bad(ErrBadValue, "%s: the incast target cannot send to itself", at.elem("senders", j))
		}
	}
}

func checkBcast(v *validator, at loc, p *PhaseSpec) {
	v.node(at.field("root"), p.Root)
}
