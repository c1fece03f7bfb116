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
