package scenario

import (
	"errors"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"nmad/internal/queue"
	"nmad/internal/simnet"
	"nmad/internal/trace"
)

// TestAcceptedKeysPinned: the key tables are derived from struct
// definitions, some of them shared with the recording format and the
// engine — so a field added to simnet.RailFaults or trace.NodeConfig
// becomes a scenario key on its own. This literal list is the pin against
// the format widening unnoticed (nothing reads it but this test): extend
// it when a key is meant, tag the field `yaml:"-"` when it is not.
func TestAcceptedKeysPinned(t *testing.T) {
	want := map[reflect.Type]string{
		reflect.TypeFor[Scenario]():    "name description cluster tenants queue phases events assertions",
		reflect.TypeFor[ClusterSpec](): "nodes rails host engine faults",
		reflect.TypeFor[simnet.Host](): "memcpy_bw",
		reflect.TypeFor[trace.NodeConfig](): "strategy credits max_grants reliability retransmit_timeout " +
			"retransmit_budget probe_budget anticipate flush_backlog body_chunk",
		reflect.TypeFor[simnet.FaultProfile](): "seed rails",
		reflect.TypeFor[simnet.RailFaults]():   "drop dup reorder outages",
		reflect.TypeFor[simnet.Outage]():       "at duration",
		reflect.TypeFor[TenantSpec]():          "name weight class",
		reflect.TypeFor[QueueSpec]():           "node capacity workers aging",
		reflect.TypeFor[PhaseSpec]():           "name kind at tenant nodes target senders msgs size count root drain_gap priority",
		reflect.TypeFor[EventSpec]():           "at action name rail scale drop dup reorder node factor duration",
		reflect.TypeFor[AssertSpec]():          "type at node rail field op value phase max min before after",
	}
	for typ, sk := range schema {
		keys, ok := want[typ]
		if !ok {
			t.Errorf("%s became a mapping of the format (keys %v)", typ, sk.keys)
			continue
		}
		got, pinned := slices.Sorted(slices.Values(sk.keys)), slices.Sorted(slices.Values(strings.Fields(keys)))
		if !slices.Equal(got, pinned) {
			t.Errorf("%s accepts\n  %v, pinned\n  %v", typ, got, pinned)
		}
	}
	if len(schema) != len(want) {
		t.Errorf("the format has %d mappings, %d are pinned", len(schema), len(want))
	}
}

// TestKeysFollowTheStruct: a field is a key with no other edit — named by
// its yaml tag, else its json name, else its Go name in snake_case —
// decodable, strictly checked and listed in the unknown-field message,
// with its position spelled in full.
func TestKeysFollowTheStruct(t *testing.T) {
	type inner struct {
		Seed  uint64
		Small int8
	}
	type probe struct {
		Tagged   int `json:"by_json" yaml:"by_yaml"`
		JSONOnly int `json:"json_only,omitempty"`
		DrainGap int
		Closed   int `yaml:"-"`
		hidden   int
		Items    []inner
	}
	learn(reflect.TypeFor[probe]())
	defer func() {
		delete(schema, reflect.TypeFor[probe]())
		delete(schema, reflect.TypeFor[inner]())
	}()
	decode := func(tree map[string]any) (probe, error) {
		var p probe
		var d decoder
		return p, d.decode(reflect.ValueOf(&p).Elem(), tree)
	}

	p, err := decode(map[string]any{"by_yaml": int64(1), "json_only": int64(2), "drain_gap": int64(3),
		"items": []any{map[string]any{"seed": int64(4), "small": int64(-128)}}})
	if want := (probe{Tagged: 1, JSONOnly: 2, DrainGap: 3, Items: []inner{{Seed: 4, Small: -128}}}); err != nil || !reflect.DeepEqual(p, want) {
		t.Fatalf("decode = %+v, %v; want %+v", p, err, want)
	}
	for name, c := range map[string]struct {
		tree map[string]any
		want string
	}{
		"json name under a yaml tag": {map[string]any{"by_json": int64(1)}, `top level: unknown field "by_json"`},
		"closed field":               {map[string]any{"closed": int64(1)}, `unknown field "closed" (known: by_yaml, json_only, drain_gap, items)`},
		"unexported field":           {map[string]any{"hidden": int64(1)}, `unknown field "hidden"`},
		"sorted-first offender":      {map[string]any{"zz": int64(1), "aa": int64(1)}, `unknown field "aa"`},
		"negative into unsigned":     {map[string]any{"items": []any{map[string]any{"seed": int64(-1)}}}, `items[0].seed: -1 does not fit`},
		"too wide for the field":     {map[string]any{"items": []any{map[string]any{}, map[string]any{"small": int64(128)}}}, `items[1].small: 128 does not fit`},
	} {
		if _, err := decode(c.tree); !errors.Is(err, ErrSchema) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want ErrSchema mentioning %q", name, err, c.want)
		}
	}
}

// TestReadmeNamesTheSchema: the README's "Schema reference" paragraph is
// the one prose listing of the format. It must name, in backticks, every
// key of every mapping and every row of the three vocabulary tables (and
// the rail profiles and tenant classes a file may name).
func TestReadmeNamesTheSchema(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, para, found := strings.Cut(string(readme), "**Schema reference.**")
	if !found {
		t.Fatal("README.md has no **Schema reference.** paragraph")
	}
	para, _, _ = strings.Cut(para, "\n\n")
	demand := func(what string, names []string) {
		for _, name := range names {
			if !strings.Contains(para, "`"+name+"`") {
				t.Errorf("README Schema reference does not mention %s `%s`", what, name)
			}
		}
	}
	for typ, sk := range schema {
		demand("the "+typ.String()+" key", sk.keys)
	}
	demand("the phase kind", sortedKeys(phaseKinds))
	demand("the event action", sortedKeys(eventActions))
	demand("the assertion type", sortedKeys(assertTypes))
	demand("the tenant class", queue.ClassNames())
	for _, p := range simnet.Profiles() {
		demand("the rail profile", []string{p.Name})
	}
}
