package scenario

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strconv"

	"nmad/internal/core"
	"nmad/internal/sim"
	"nmad/internal/simnet"
)

// The assertion engine. At every named checkpoint (and implicitly at
// the end of the run) the runner takes a snapshot — the per-node engine
// counters and the per-rail fault counters — and each
// assertion evaluates against the snapshot it anchors at. Evaluation is
// pure: all the state an assertion may consult is in the snapshot, so
// checkpoint assertions see mid-run values, not end-of-run ones.

// snapshot is the observable state of a run at one instant.
type snapshot struct {
	Stats  []core.Stats
	Faults []simnet.FaultStats
}

// statsFields / faultFields map assertion field names to accessors: every
// exported integer field of the struct under its snake key, so a
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
		table[snake(f.Name)] = func(s *T) float64 {
			return float64(reflect.ValueOf(s).Elem().Field(i).Int())
		}
	}
	return table
}

func sortedKeys[V any](m map[string]V) []string { return slices.Sorted(maps.Keys(m)) }

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
	snapshots map[string]*snapshot // checkpoint name -> snapshot; "end" always present
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
	res.OK, res.Detail = assertTypes[a.Type].eval(ctx, snap, a)
	return res
}

// assertType is one row of the assertion vocabulary: what Validate demands
// of an assertion of the type (nil: nothing), how it is decided against the
// snapshot it anchors at, and how reports spell it.
type assertType struct {
	check func(v *validator, at loc, a AssertSpec)
	eval  func(ctx *evalContext, snap *snapshot, a AssertSpec) (ok bool, detail string)
	label func(a AssertSpec) string
}

var assertTypes = map[string]assertType{
	"stats": counterAssert("node", statsFields, []Selector{"sum", "max", "all"},
		func(a AssertSpec) Selector { return a.Node }, (*validator).node,
		func(s *snapshot) []core.Stats { return s.Stats }),
	"faults": counterAssert("rail", faultFields, []Selector{"sum"},
		func(a AssertSpec) Selector { return a.Rail }, (*validator).rail,
		func(s *snapshot) []simnet.FaultStats { return s.Faults }),
	"completion": {
		check: func(v *validator, at loc, a AssertSpec) {
			if _, ok := v.phases[a.Phase]; a.Phase != "" && !ok {
				v.bad(ErrBadTarget, "%s: no phase named %q", at, a.Phase)
			}
			if a.Max == 0 && a.Min == 0 {
				v.bad(ErrBadValue, "%s: a completion assertion needs max and/or min", at)
			}
			if a.Max > 0 && a.Min > a.Max {
				v.bad(ErrBadValue, "%s: min %v exceeds max %v", at, a.Min, a.Max)
			}
		},
		eval: func(ctx *evalContext, _ *snapshot, a AssertSpec) (bool, string) {
			done, who := ctx.runEnd, "run"
			if a.Phase != "" {
				pr := ctx.phases[a.Phase]
				if pr == nil || !pr.done {
					return false, fmt.Sprintf("phase %q never completed", a.Phase)
				}
				done, who = pr.end, "phase "+a.Phase
			}
			switch {
			case a.Max > 0 && done > a.Max:
				return false, fmt.Sprintf("%s completed at %v, want <= %v", who, done, a.Max)
			case a.Min > 0 && done < a.Min:
				return false, fmt.Sprintf("%s completed at %v, want >= %v", who, done, a.Min)
			}
			return true, fmt.Sprintf("%s completed at %v", who, done)
		},
		label: func(a AssertSpec) string {
			s := "completion run"
			if a.Phase != "" {
				s = "completion " + a.Phase
			}
			if a.Min > 0 {
				s += fmt.Sprintf(" >= %v", a.Min)
			}
			if a.Max > 0 {
				s += fmt.Sprintf(" <= %v", a.Max)
			}
			return s
		},
	},
	// No parameters: every phase verifies its payloads; the assertion
	// demands zero corruption.
	"integrity": {
		eval: func(ctx *evalContext, _ *snapshot, _ AssertSpec) (bool, string) {
			if ctx.integrity != 0 {
				return false, fmt.Sprintf("%d corrupted payload(s)", ctx.integrity)
			}
			return true, "every payload verified"
		},
		label: func(AssertSpec) string { return "integrity" },
	},
	// Before must complete no later than after completes, and both must
	// complete.
	"phase_order": {
		check: func(v *validator, at loc, a AssertSpec) {
			for _, ref := range []struct{ field, name string }{{"before", a.Before}, {"after", a.After}} {
				if ref.name == "" {
					v.bad(ErrBadValue, "%s: missing %s phase", at, ref.field)
				} else if _, ok := v.phases[ref.name]; !ok {
					v.bad(ErrBadTarget, "%s: no phase named %q", at, ref.name)
				}
			}
		},
		eval: func(ctx *evalContext, _ *snapshot, a AssertSpec) (bool, string) {
			before, after := ctx.phases[a.Before], ctx.phases[a.After]
			switch {
			case before == nil || !before.done:
				return false, fmt.Sprintf("phase %q never completed", a.Before)
			case after == nil || !after.done:
				return false, fmt.Sprintf("phase %q never completed", a.After)
			case before.end > after.end:
				return false, fmt.Sprintf("%s completed at %v, after %s at %v", a.Before, before.end, a.After, after.end)
			}
			return true, fmt.Sprintf("%s at %v <= %s at %v", a.Before, before.end, a.After, after.end)
		},
		label: func(a AssertSpec) string { return fmt.Sprintf("order %s -> %s", a.Before, a.After) },
	},
}

// label renders an assertion compactly for reports.
func (a AssertSpec) label() string {
	if typ, ok := assertTypes[a.Type]; ok {
		return typ.label(a)
	}
	return a.Type
}

// counterAssert builds the row of a counter assertion — field op value
// over one table of counters, one row per unit (a stats assertion reads
// core.Stats per node, a faults assertion simnet.FaultStats per rail). The
// selector is a unit id or one of words: sum (the default) adds the rows
// up, max takes the largest, all demands the predicate of every row.
func counterAssert[T any](
	unit string, fields map[string]func(*T) float64, words []Selector,
	selector func(AssertSpec) Selector, inCluster func(v *validator, at loc, id int),
	rows func(*snapshot) []T,
) assertType {
	return assertType{
		check: func(v *validator, at loc, a AssertSpec) {
			if _, ok := fields[a.Field]; !ok {
				v.bad(ErrBadValue, "%s: unknown %s field %q (known: %v)", at, a.Type, a.Field, sortedKeys(fields))
			}
			if sel := selector(a); sel != "" && !slices.Contains(words, sel) {
				if id, err := strconv.Atoi(string(sel)); err != nil {
					v.bad(ErrBadValue, "%s: %s selector %q (want a %s id or one of %v)", at, unit, sel, unit, words)
				} else {
					inCluster(v, at.field(unit), id)
				}
			}
			switch a.Op {
			case "<", "<=", ">", ">=", "==", "!=":
			case "":
				v.bad(ErrBadValue, "%s: missing op", at)
			default:
				v.bad(ErrBadValue, "%s: unknown op %q (want < <= > >= == !=)", at, a.Op)
			}
		},
		eval: func(_ *evalContext, snap *snapshot, a AssertSpec) (bool, string) {
			fn, all := fields[a.Field], rows(snap)
			var got float64
			who := string(selector(a))
			switch who {
			case "", "sum":
				for i := range all {
					got += fn(&all[i])
				}
				who = "sum"
			case "max":
				for i := range all {
					got = max(got, fn(&all[i]))
				}
			case "all":
				for i := range all {
					if v := fn(&all[i]); !compare(v, a.Op, a.Value) {
						return false, fmt.Sprintf("%s %d %s = %v, want %s %v", unit, i, a.Field, v, a.Op, a.Value)
					}
				}
				return true, fmt.Sprintf("%s %s %v on all %d %ss", a.Field, a.Op, a.Value, len(all), unit)
			default:
				id, _ := strconv.Atoi(who) // Validate vetted it
				got = fn(&all[id])
				who = fmt.Sprintf("%s %d", unit, id)
			}
			return compare(got, a.Op, a.Value), fmt.Sprintf("%s %s = %v, want %s %v", who, a.Field, got, a.Op, a.Value)
		},
		label: func(a AssertSpec) string {
			return fmt.Sprintf("%s[%s] %s %s %v", a.Type, selector(a), a.Field, a.Op, a.Value)
		},
	}
}
