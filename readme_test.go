package nmad_test

import (
	"go/ast"
	"go/constant"
	"go/types"
	"os"
	"regexp"
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
// must appear in backticks somewhere in README.md, and every flag a
// command under cmd/ defines must appear as -name; a new registration or
// flag fails here until the prose names it. (The scenario vocabulary has
// its own test, TestReadmeNamesTheSchema.)
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
	for cmd, names := range cliFlags(t) {
		for _, name := range names {
			// A whole word: `per-strategy` does not name -strategy.
			if !regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(name) + `([^\w-]|$)`).MatchString(readme) {
				t.Errorf("README.md does not name the %s flag -%s", cmd, name)
			}
		}
	}
}

// cliFlags returns the flags the commands under cmd/ define through
// package flag — flag.String(...) and fs.Bool(...) alike — by command
// import path. A definer is a function or method of package flag with a
// name and a usage parameter; its name argument must be a constant.
func cliFlags(t *testing.T) map[string][]string {
	pkgs, err := analysis.Load(".", "./cmd/...")
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string][]string{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "flag" {
					return true
				}
				params := fn.Type().(*types.Signature).Params()
				nameAt, usage := -1, false
				for i := range params.Len() {
					switch params.At(i).Name() {
					case "name":
						nameAt = i
					case "usage":
						usage = true
					}
				}
				if nameAt < 0 || !usage {
					return true
				}
				tv := pkg.Info.Types[call.Args[nameAt]]
				if tv.Value == nil || tv.Value.Kind() != constant.String {
					t.Errorf("%s: flag name is not a constant", pkg.Fset.Position(call.Pos()))
					return true
				}
				flags[pkg.Path] = append(flags[pkg.Path], constant.StringVal(tv.Value))
				return true
			})
		}
	}
	if len(flags) == 0 {
		t.Fatal("found no flag definitions under cmd/")
	}
	return flags
}
