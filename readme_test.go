package nmad_test

import (
	"os"
	"strings"
	"testing"

	"nmad"
	"nmad/internal/analysis"
	"nmad/internal/bench"
)

// The registries as the package finds them, read before any test of this
// package registers a strategy or an algorithm of its own.
var (
	builtinStrategies = nmad.Strategies()
	builtinCollAlgos  = func() map[nmad.CollKind][]string {
		m := map[nmad.CollKind][]string{}
		for _, kind := range nmad.CollKinds() {
			m[kind] = nmad.CollAlgoNames(kind)
		}
		return m
	}()
)

// TestReadmeNamesTheRegistries: the lists README types by hand that have
// a registry behind them cannot drift from it. Every strategy, rail
// profile, collective kind and algorithm, figure id and nmad-vet analyzer
// must appear in backticks somewhere in README.md; a new registration
// fails here until the prose names it. (The scenario vocabulary has its
// own test, TestReadmeNamesTheSchema; CLI flags wait for the tools to own
// flag.FlagSets.)
func TestReadmeNamesTheRegistries(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	demand := func(what string, names ...string) {
		for _, name := range names {
			if !strings.Contains(readme, "`"+name+"`") {
				t.Errorf("README.md does not name %s `%s`", what, name)
			}
		}
	}
	demand("the strategy", builtinStrategies...)
	for _, p := range nmad.Profiles() {
		demand("the rail profile", p.Name)
	}
	for _, kind := range nmad.CollKinds() {
		demand("the collective kind", string(kind))
		demand("the "+string(kind)+" algorithm", builtinCollAlgos[kind]...)
	}
	for _, fig := range bench.Figures() {
		demand("the figure id", fig.ID)
	}
	for _, a := range analysis.Analyzers() {
		demand("the nmad-vet analyzer", a.Name)
	}
}
