package analysis

import (
	"bytes"
	"testing"
)

// TestModuleIsVetClean is the dogfood gate: the whole module must pass
// its own analyzer suite. The standalone driver covers non-test files;
// CI's `go vet -vettool=nmad-vet ./...` additionally covers test files.
func TestModuleIsVetClean(t *testing.T) {
	var out bytes.Buffer
	code := runStandalone(&out, "../..", []string{"./..."}, Analyzers())
	if code != 0 {
		t.Fatalf("nmad-vet over the module exited %d:\n%s", code, out.String())
	}
}

// TestSuiteIsNonEmpty pins the advertised analyzer set: CI wiring and
// docs reference these three names.
func TestSuiteIsNonEmpty(t *testing.T) {
	want := map[string]bool{"determinism": true, "sentinelcmp": true, "spileak": true}
	got := Analyzers()
	if len(got) != len(want) {
		t.Fatalf("Analyzers() = %d analyzers, want %d", len(got), len(want))
	}
	for _, a := range got {
		if !want[a.Name] {
			t.Errorf("unexpected analyzer %q", a.Name)
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q is missing doc or run", a.Name)
		}
	}
}
