package scenario

import (
	"errors"
	"strings"
	"testing"
)

// validDoc is a minimal correct scenario the error-path tests mutate.
const validDoc = `
name: base
cluster:
  nodes: 4
  rails: [mx10g]
phases:
  - name: a
    kind: pingpong
    at: 0us
    nodes: [0, 1]
    size: 64
    count: 2
  - name: b
    kind: incast
    at: 100us
    target: 0
    msgs: 4
    size: 256
events:
  - at: 50us
    action: checkpoint
    name: mid
assertions:
  - type: integrity
`

func mustParse(t *testing.T, doc string) *Scenario {
	t.Helper()
	sc, err := Parse([]byte(doc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return sc
}

func TestParseValidDoc(t *testing.T) {
	sc := mustParse(t, validDoc)
	if errs := Validate(sc); len(errs) > 0 {
		t.Fatalf("Validate: %v", errs)
	}
	if sc.Name != "base" || len(sc.Phases) != 2 || len(sc.Events) != 1 || len(sc.Assertions) != 1 {
		t.Fatalf("decoded scenario off: %+v", sc)
	}
	if sc.Phases[1].Kind != "incast" || sc.Phases[1].Msgs != 4 {
		t.Fatalf("phase b off: %+v", sc.Phases[1])
	}
}

func TestParseSyntaxErrors(t *testing.T) {
	cases := map[string]string{
		"tab indent":       "name: x\ncluster:\n\tnodes: 2\n",
		"multi-doc":        "---\nname: x\n",
		"missing space":    "name:x\n",
		"flow mapping":     "cluster: {nodes: 2}\n",
		"anchor":           "name: &a x\n",
		"unterminated":     "name: \"x\n",
		"duplicate key":    "name: x\nname: y\n",
		"seq in mapping":   "name: x\n- y\n",
		"nested flow list": "name: x\nlist: [[1], 2]\n",
	}
	for label, doc := range cases {
		if _, err := Parse([]byte(doc)); !errors.Is(err, ErrSyntax) {
			t.Errorf("%s: got %v, want ErrSyntax", label, err)
		}
	}
}

func TestParseSchemaErrors(t *testing.T) {
	cases := map[string]string{
		"unknown top field": "name: x\nbogus: 1\n",
		"unknown phase key": "name: x\nphases:\n  - kind: pingpong\n    frobnicate: 1\n",
		"string for int":    "name: x\ncluster:\n  nodes: lots\n",
		"bare duration":     "name: x\nphases:\n  - kind: barrier\n    at: 100\n",
		"bad duration unit": "name: x\nphases:\n  - kind: barrier\n    at: 10fortnights\n",
		"missing name":      "description: x\n",
		"sequence for map":  "cluster:\n  - nodes\n",
		"non-integer nodes": "name: x\nphases:\n  - kind: pingpong\n    nodes: [a, b]\n",
		"negative duration": "name: x\nphases:\n  - kind: barrier\n    at: -5us\n",
	}
	for label, doc := range cases {
		if _, err := Parse([]byte(doc)); !errors.Is(err, ErrSchema) {
			t.Errorf("%s: got %v, want ErrSchema", label, err)
		}
	}
}

// validateErr runs Validate and demands at least one error matching the
// sentinel.
func validateErr(t *testing.T, doc string, want error) {
	t.Helper()
	sc := mustParse(t, doc)
	errs := Validate(sc)
	for _, e := range errs {
		if errors.Is(e, want) {
			return
		}
	}
	t.Fatalf("Validate = %v, want an error wrapping %v", errs, want)
}

func TestValidateUnknownAction(t *testing.T) {
	validateErr(t, strings.Replace(validDoc, "action: checkpoint\n    name: mid", "action: explode_rail", 1),
		ErrUnknownAction)
}

func TestValidateUnknownPhaseKind(t *testing.T) {
	validateErr(t, strings.Replace(validDoc, "kind: incast", "kind: dance", 1), ErrUnknownPhase)
}

func TestValidateUnknownAssertType(t *testing.T) {
	validateErr(t, strings.Replace(validDoc, "type: integrity", "type: vibes", 1), ErrUnknownAssert)
}

func TestValidateBadTargetNode(t *testing.T) {
	// Incast target outside the 4-node cluster.
	validateErr(t, strings.Replace(validDoc, "target: 0", "target: 9", 1), ErrBadTarget)
	// Phase participant outside the cluster.
	validateErr(t, strings.Replace(validDoc, "nodes: [0, 1]", "nodes: [0, 7]", 1), ErrBadTarget)
	// Event node outside the cluster.
	validateErr(t, strings.Replace(validDoc,
		"action: checkpoint\n    name: mid", "action: slow_node\n    node: 12\n    factor: 2.0", 1),
		ErrBadTarget)
}

func TestValidateBadTargetRail(t *testing.T) {
	validateErr(t, strings.Replace(validDoc,
		"action: checkpoint\n    name: mid", "action: degrade_rail\n    rail: 3\n    scale: 0.5", 1),
		ErrBadTarget)
}

func TestValidateOverlappingPhases(t *testing.T) {
	// Same start instant.
	validateErr(t, strings.Replace(validDoc, "at: 100us", "at: 0us", 1), ErrPhaseOverlap)
	// Out-of-order declaration.
	validateErr(t, strings.Replace(strings.Replace(validDoc, "at: 0us", "at: 200us", 1),
		"at: 100us", "at: 90us", 1), ErrPhaseOverlap)
	// Duplicate phase name.
	validateErr(t, strings.Replace(validDoc, "- name: b", "- name: a", 1), ErrPhaseOverlap)
}

func TestValidateUndeclaredCheckpoint(t *testing.T) {
	doc := strings.Replace(validDoc, "type: integrity", "type: integrity\n    at: nowhere", 1)
	validateErr(t, doc, ErrUnknownCheckpoint)
	// "end" and declared checkpoints are fine.
	ok := strings.Replace(validDoc, "type: integrity", "type: integrity\n    at: mid", 1)
	if errs := Validate(mustParse(t, ok)); len(errs) > 0 {
		t.Fatalf("checkpoint 'mid' should validate: %v", errs)
	}
}

func TestValidateBadValues(t *testing.T) {
	cases := map[string]string{
		"one-node cluster": strings.Replace(validDoc, "nodes: 4", "nodes: 1", 1),
		"unknown profile":  strings.Replace(validDoc, "rails: [mx10g]", "rails: [carrier-pigeon]", 1),
		"bad scale": strings.Replace(validDoc,
			"action: checkpoint\n    name: mid", "action: degrade_rail\n    rail: 0\n    scale: 1.5", 1),
		"bad slow factor": strings.Replace(validDoc,
			"action: checkpoint\n    name: mid", "action: slow_node\n    node: 0\n    factor: 0.5", 1),
		"unbounded squeeze": strings.Replace(validDoc,
			"action: checkpoint\n    name: mid", "action: squeeze_credits\n    node: 0", 1),
		"pingpong self": strings.Replace(validDoc, "nodes: [0, 1]", "nodes: [1, 1]", 1),
	}
	for label, doc := range cases {
		sc := mustParse(t, doc)
		found := false
		for _, e := range Validate(sc) {
			if errors.Is(e, ErrBadValue) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: want ErrBadValue, got %v", label, Validate(sc))
		}
	}
}

// everyLocationDoc breaks at least one rule at every place Validate
// names in a message: a cluster fault rail, tenants (one unnamed), the
// queue node, a phase and its nodes, senders, target and root fields,
// events of every kind of check, and assertions of every type.
const everyLocationDoc = `
name: broken
cluster:
  nodes: 4
  rails: [mx10g]
  faults:
    rails:
      - drop: 1.5
tenants:
  - name: t1
    weight: 0
    class: nope
  - name: t1
    weight: 1
    class: batch
  - weight: 1
    class: batch
queue:
  node: 9
phases:
  - name: a
    kind: pingpong
    at: 0us
    nodes: [0, 7]
    tenant: ghost
  - name: r
    kind: ring
    at: 10us
    nodes: [1, 2, 1]
  - name: b
    kind: incast
    at: 5us
    target: 9
    senders: [2, 9, 9]
  - name: c
    kind: bcast
    at: 20us
    root: 8
  - name: c
    kind: barrier
    at: 25us
    nodes: [0]
  - name: d
    kind: dance
    at: 30us
  - name: e
    kind: composite
    at: 40us
    nodes: [3, 3]
    size: -1
events:
  - at: 50us
    action: slow_node
    node: 12
    factor: 0.5
  - at: 60us
    action: degrade_rail
    rail: 3
    scale: 1.5
  - at: 70us
    action: set_faults
    rail: 0
    dup: 2
  - at: 80us
    action: explode
  - at: 90us
    action: checkpoint
  - at: 95us
    action: checkpoint
    name: cp
  - at: 96us
    action: checkpoint
    name: cp
  - at: 97us
    action: squeeze_credits
    node: 0
assertions:
  - type: stats
    node: 42
    field: submitted
    op: "~~"
  - type: stats
    node: every
    field: submitted
  - type: faults
    rail: 5
    field: dropped
    op: ">"
    value: 0
  - type: completion
    phase: ghost
  - type: completion
    min: 2ms
    max: 1ms
  - type: phase_order
    before: a
    after: zzz
  - type: integrity
    at: nowhere
  - type: vibes
  - at: end
`

// The texts of Validate's errors, where each one says where the problem
// is: they are what `nmad-sim validate` prints, so a change to how the
// checks locate a problem must leave them as they are.
func TestValidateTexts(t *testing.T) {
	want := []string{
		"scenario: bad value: cluster.faults.rails[0]: drop probability 1.5 outside [0,1]",
		"scenario: bad value: tenants[0] (t1): weight must be >= 1, got 0",
		"scenario: bad value: tenants[0] (t1): unknown class \"nope\" (known: bulk, normal, latency)",
		"scenario: bad value: tenants[1] (t1): name already used by tenants[0]",
		"scenario: bad value: tenants[1] (t1): unknown class \"batch\" (known: bulk, normal, latency)",
		"scenario: bad value: tenants[2] (): a tenant needs a name",
		"scenario: bad value: tenants[2] (): unknown class \"batch\" (known: bulk, normal, latency)",
		"scenario: target outside the declared cluster: queue.node: node 9 outside the 4-node cluster",
		"scenario: target outside the declared cluster: phases[0] (a).nodes[1]: node 7 outside the 4-node cluster",
		"scenario: target outside the declared cluster: phases[0] (a): no tenant named \"ghost\"",
		"scenario: bad value: phases[1] (r).nodes[2]: node 1 is already a ring member",
		"scenario: overlapping phases: phases[2] (b): starts at 5000ns, not after phases[1] (r) at 10.000µs — declare phases in strictly increasing start order",
		"scenario: target outside the declared cluster: phases[2] (b).target: node 9 outside the 4-node cluster",
		"scenario: target outside the declared cluster: phases[2] (b).senders[1]: node 9 outside the 4-node cluster",
		"scenario: bad value: phases[2] (b).senders[1]: the incast target cannot send to itself",
		"scenario: target outside the declared cluster: phases[2] (b).senders[2]: node 9 outside the 4-node cluster",
		"scenario: bad value: phases[2] (b).senders[2]: the incast target cannot send to itself",
		"scenario: target outside the declared cluster: phases[3] (c).root: node 8 outside the 4-node cluster",
		"scenario: overlapping phases: phases[4] (c): name already used by phases[3]",
		"scenario: bad value: phases[4] (c): collectives span every node; drop the nodes field",
		"scenario: unknown phase kind: phases[5] (d): \"dance\" (known: allgather, allreduce, alltoall, barrier, bcast, composite, incast, pingpong, ring)",
		"scenario: bad value: phases[6] (e): size/msgs must be >= 0 and count >= 1",
		"scenario: bad value: phases[6] (e): composite peers must differ",
		"scenario: target outside the declared cluster: events[0] (slow_node at 50.000µs): node 12 outside the 4-node cluster",
		"scenario: bad value: events[0] (slow_node at 50.000µs): factor 0.5 must be >= 1",
		"scenario: target outside the declared cluster: events[1] (degrade_rail at 60.000µs): rail 3 outside the 1-rail cluster",
		"scenario: bad value: events[1] (degrade_rail at 60.000µs): scale 1.5 outside (0,1]",
		"scenario: bad value: events[2] (set_faults at 70.000µs): dup probability 2 outside [0,1]",
		"scenario: unknown event action: events[3] (explode at 80.000µs): \"explode\" (known: checkpoint, degrade_rail, rail_outage, restore_node, restore_rail, set_faults, slow_node, squeeze_credits)",
		"scenario: bad value: events[4] (checkpoint at 90.000µs): a checkpoint needs a name",
		"scenario: bad value: events[6] (checkpoint at 96.000µs): duplicate checkpoint \"cp\"",
		"scenario: bad value: events[7] (squeeze_credits at 97.000µs): squeeze_credits needs a positive duration (a permanent squeeze deadlocks the run)",
		"scenario: target outside the declared cluster: assertions[0] (stats[42] submitted ~~ 0).node: node 42 outside the 4-node cluster",
		"scenario: bad value: assertions[0] (stats[42] submitted ~~ 0): unknown op \"~~\" (want < <= > >= == !=)",
		"scenario: bad value: assertions[1] (stats[every] submitted  0): node selector \"every\" (want a node id or one of [sum max all])",
		"scenario: bad value: assertions[1] (stats[every] submitted  0): missing op",
		"scenario: target outside the declared cluster: assertions[2] (faults[5] dropped > 0).rail: rail 5 outside the 1-rail cluster",
		"scenario: target outside the declared cluster: assertions[3] (completion ghost): no phase named \"ghost\"",
		"scenario: bad value: assertions[3] (completion ghost): a completion assertion needs max and/or min",
		"scenario: bad value: assertions[4] (completion run >= 2000.000µs <= 1000.000µs): min 2000.000µs exceeds max 1000.000µs",
		"scenario: target outside the declared cluster: assertions[5] (order a -> zzz): no phase named \"zzz\"",
		"scenario: assertion on undeclared checkpoint: assertions[6] (integrity): no checkpoint event declares \"nowhere\"",
		"scenario: unknown assertion type: assertions[7] (vibes): \"vibes\" (known: completion, faults, integrity, phase_order, stats)",
		"scenario: unknown assertion type: assertions[8] (): missing type",
	}
	var got []string
	for _, e := range Validate(mustParse(t, everyLocationDoc)) {
		got = append(got, e.Error())
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("Validate reports\n\t%s\nwant\n\t%s", strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
	}
}

func TestValidateUnknownStatsField(t *testing.T) {
	doc := strings.Replace(validDoc, "type: integrity",
		"type: stats\n    field: warp_factor\n    op: \">\"\n    value: 1", 1)
	validateErr(t, doc, ErrBadValue)
}

func TestValidateCollectsAllErrors(t *testing.T) {
	doc := strings.Replace(strings.Replace(validDoc,
		"kind: incast", "kind: dance", 1),
		"action: checkpoint\n    name: mid", "action: explode_rail", 1)
	sc := mustParse(t, doc)
	errs := Validate(sc)
	var gotPhase, gotAction bool
	for _, e := range errs {
		gotPhase = gotPhase || errors.Is(e, ErrUnknownPhase)
		gotAction = gotAction || errors.Is(e, ErrUnknownAction)
	}
	if !gotPhase || !gotAction {
		t.Fatalf("want both ErrUnknownPhase and ErrUnknownAction in one pass, got %v", errs)
	}
}

func TestParseTime(t *testing.T) {
	cases := map[string]int64{
		"250us": 250_000,
		"1.5ms": 1_500_000,
		"2s":    2_000_000_000,
		"40ns":  40,
		"3µs":   3_000,
		// The largest whole second the clock holds.
		"9223372036s": 9_223_372_036_000_000_000,
	}
	for in, want := range cases {
		got, err := parseTime(in)
		if err != nil || int64(got) != want {
			t.Errorf("ParseTime(%q) = %v, %v; want %d", in, got, err, want)
		}
	}
	// The last row: a product past the int64 nanosecond clock used to wrap.
	for _, bad := range []string{"", "100", "us", "-1ms", "1h", "1.2.3s", "-0.4ns", "NaNs", "Infs",
		"1e30s", "9223372037s", "1e19ns", "9223372036854775808ns"} {
		if _, err := parseTime(bad); err == nil {
			t.Errorf("ParseTime(%q) should fail", bad)
		}
	}
}
