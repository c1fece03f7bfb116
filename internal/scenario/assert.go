package scenario

import (
	"fmt"
	"reflect"
	"sort"

	"nmad/internal/core"
	"nmad/internal/names"
	"nmad/internal/sim"
	"nmad/internal/simnet"
)

// The assertion engine. At every named checkpoint (and implicitly at
// the end of the run) the runner takes a Snapshot — the per-node engine
// counters, the per-rail fault counters and the clock — and each
// assertion evaluates against the snapshot it anchors at. Evaluation is
// pure: all the state an assertion may consult is in the snapshot, so
// checkpoint assertions see mid-run values, not end-of-run ones.

// Snapshot is the observable state of a run at one instant.
type Snapshot struct {
	At     sim.Time
	Stats  []core.Stats
	Faults []simnet.FaultStats
}

// statsFields / faultFields map assertion field names to accessors: every
// exported integer field of the struct under its names.Snake key, so a
// counter added to core.Stats or simnet.FaultStats is assertable without
// an edit here. The one derived quantity is added by name.
var (
	statsFields = fieldTable[core.Stats]()
	faultFields = fieldTable[simnet.FaultStats]()
)

func init() {
	statsFields["aggregation_ratio"] = (*core.Stats).AggregationRatio
}

// fieldTable derives the accessor table of T. Accessors take *T and read
// the field in place, so evaluating one neither copies nor boxes the
// struct. Non-integer fields (core.Stats.PerDriverBytes) have no scalar
// value and are skipped.
func fieldTable[T any]() map[string]func(*T) float64 {
	typ := reflect.TypeFor[T]()
	table := make(map[string]func(*T) float64, typ.NumField())
	for i := range typ.NumField() {
		f := typ.Field(i)
		if !f.IsExported() || !reflect.Zero(f.Type).CanInt() {
			continue
		}
		table[names.Snake(f.Name)] = func(s *T) float64 {
			return float64(reflect.ValueOf(s).Elem().Field(i).Int())
		}
	}
	return table
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func compare(got float64, op string, want float64) bool {
	switch op {
	case "<":
		return got < want
	case "<=":
		return got <= want
	case ">":
		return got > want
	case ">=":
		return got >= want
	case "==":
		return got == want
	case "!=":
		return got != want
	}
	return false
}

// AssertResult is one evaluated assertion.
type AssertResult struct {
	Spec AssertSpec
	// OK reports whether the assertion held; Detail explains the
	// outcome either way ("node 3 retransmits = 12, want >= 1").
	OK     bool
	Detail string
}

func (r AssertResult) String() string {
	mark := "PASS"
	if !r.OK {
		mark = "FAIL"
	}
	at := r.Spec.At
	if at == "" {
		at = "end"
	}
	return fmt.Sprintf("%s  [%s] %s — %s", mark, at, r.Spec.label(), r.Detail)
}

// evalContext is everything assertions may consult, assembled by the
// runner after the world drains.
type evalContext struct {
	snapshots map[string]*Snapshot // checkpoint name -> snapshot; "end" always present
	phases    map[string]*phaseRun // phase name -> outcome
	runEnd    sim.Time             // completion time of the whole workload
	integrity int                  // total payload corruption count across phases
}

// eval evaluates one assertion against the context.
func (ctx *evalContext) eval(a AssertSpec) AssertResult {
	res := AssertResult{Spec: a}
	anchor := a.At
	if anchor == "" {
		anchor = "end"
	}
	snap := ctx.snapshots[anchor]
	if snap == nil {
		// Validate catches this before a run; belt and braces.
		res.Detail = fmt.Sprintf("no snapshot at %q", anchor)
		return res
	}

	switch a.Type {
	case AssertStats:
		fn := statsFields[a.Field]
		var got float64
		var who string
		switch a.Node {
		case "", "sum":
			for i := range snap.Stats {
				got += fn(&snap.Stats[i])
			}
			who = "sum"
		case "max":
			for i := range snap.Stats {
				if v := fn(&snap.Stats[i]); v > got {
					got = v
				}
			}
			who = "max"
		case "all":
			for node := range snap.Stats {
				if v := fn(&snap.Stats[node]); !compare(v, a.Op, a.Value) {
					res.Detail = fmt.Sprintf("node %d %s = %v, want %s %v", node, a.Field, v, a.Op, a.Value)
					return res
				}
			}
			res.OK = true
			res.Detail = fmt.Sprintf("%s %s %v on all %d nodes", a.Field, a.Op, a.Value, len(snap.Stats))
			return res
		default:
			id, _ := parseID(a.Node)
			got = fn(&snap.Stats[id])
			who = fmt.Sprintf("node %d", id)
		}
		res.OK = compare(got, a.Op, a.Value)
		res.Detail = fmt.Sprintf("%s %s = %v, want %s %v", who, a.Field, got, a.Op, a.Value)

	case AssertFaults:
		fn := faultFields[a.Field]
		var got float64
		var who string
		switch a.Rail {
		case "", "sum":
			for i := range snap.Faults {
				got += fn(&snap.Faults[i])
			}
			who = "sum"
		default:
			id, _ := parseID(a.Rail)
			got = fn(&snap.Faults[id])
			who = fmt.Sprintf("rail %d", id)
		}
		res.OK = compare(got, a.Op, a.Value)
		res.Detail = fmt.Sprintf("%s %s = %v, want %s %v", who, a.Field, got, a.Op, a.Value)

	case AssertCompletion:
		var done sim.Time
		var who string
		if a.Phase == "" {
			done, who = ctx.runEnd, "run"
		} else {
			pr := ctx.phases[a.Phase]
			if pr == nil || !pr.done {
				res.Detail = fmt.Sprintf("phase %q never completed", a.Phase)
				return res
			}
			done, who = pr.end, "phase "+a.Phase
		}
		switch {
		case a.Max > 0 && done > a.Max:
			res.Detail = fmt.Sprintf("%s completed at %v, want <= %v", who, done, a.Max)
		case a.Min > 0 && done < a.Min:
			res.Detail = fmt.Sprintf("%s completed at %v, want >= %v", who, done, a.Min)
		default:
			res.OK = true
			res.Detail = fmt.Sprintf("%s completed at %v", who, done)
		}

	case AssertIntegrity:
		res.OK = ctx.integrity == 0
		if res.OK {
			res.Detail = "every payload verified"
		} else {
			res.Detail = fmt.Sprintf("%d corrupted payload(s)", ctx.integrity)
		}

	case AssertPhaseOrder:
		before, after := ctx.phases[a.Before], ctx.phases[a.After]
		switch {
		case before == nil || !before.done:
			res.Detail = fmt.Sprintf("phase %q never completed", a.Before)
		case after == nil || !after.done:
			res.Detail = fmt.Sprintf("phase %q never completed", a.After)
		case before.end > after.end:
			res.Detail = fmt.Sprintf("%s completed at %v, after %s at %v", a.Before, before.end, a.After, after.end)
		default:
			res.OK = true
			res.Detail = fmt.Sprintf("%s at %v <= %s at %v", a.Before, before.end, a.After, after.end)
		}
	}
	return res
}
