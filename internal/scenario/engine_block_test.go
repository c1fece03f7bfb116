package scenario

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"nmad/internal/sim"
	"nmad/internal/trace"
)

// Every option of the recorded personality must be reachable from a
// scenario's cluster.engine block under its JSON name, or be listed here
// as deliberately not settable — so an option added to trace.NodeConfig
// fails CI until the decoder knows it (or this list says why not).
func TestEngineBlockCoversPersonality(t *testing.T) {
	notSettable := map[string]bool{
		// The paper's measured software overheads: constants of the
		// MAD-MPI model, not per-scenario knobs.
		"submit_overhead":   true,
		"schedule_overhead": true,
	}
	typ := reflect.TypeFor[trace.NodeConfig]()
	for i := range typ.NumField() {
		f := typ.Field(i)
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		var yaml string
		var want any
		switch {
		case f.Type == reflect.TypeFor[sim.Time]():
			yaml, want = fmt.Sprintf("%dus", 7+i), sim.Time(7+i)*sim.Microsecond
		case f.Type.Kind() == reflect.String:
			yaml, want = "prio", "prio"
		case f.Type.Kind() == reflect.Bool:
			yaml, want = "true", true
		case f.Type.Kind() == reflect.Int:
			yaml, want = fmt.Sprint(1000+i), 1000+i
		default:
			t.Fatalf("NodeConfig.%s: kind %s not handled — extend this test", f.Name, f.Type)
		}
		sc, err := Parse([]byte(fmt.Sprintf("name: probe\ncluster:\n  engine:\n    %s: %s\n", key, yaml)))
		if notSettable[key] {
			if !errors.Is(err, ErrSchema) {
				t.Errorf("cluster.engine.%s is listed as not settable but parses (err %v)", key, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("cluster.engine.%s (NodeConfig.%s) is not decodable: %v", key, f.Name, err)
			continue
		}
		if got := reflect.ValueOf(sc.Cluster.Engine).Field(i).Interface(); got != want {
			t.Errorf("cluster.engine.%s: %s landed as NodeConfig.%s = %v, want %v", key, yaml, f.Name, got, want)
		}
	}
}
