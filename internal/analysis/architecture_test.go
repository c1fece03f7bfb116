package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The architecture rules: the one-path rules the engine's design rests on,
// one row each. A row names its packages relative to the module, so the
// table runs on this repository and on testdata/archmod alike, and holds
// one check over the typed syntax of each file. The packages are the ones
// the export rule loads, so nothing is type-checked twice; test files,
// where a row asks for them, are parsed by testFiles and matched by what
// they spell. A comment is never code, and a call or a field is one node
// however many lines it spans.
//
// A new one-path rule is a row here plus its positives and negatives in
// the fixture module.
var architecture = []archRow{
	{
		name:  "workload drivers and the job API return errors",
		pkgs:  []string{"internal/bench", "internal/replay", "internal/queue", "cmd/..."},
		check: callsPanic,
		msg:   "a workload driver, the job API or a command panics: return a typed error (through sim.Group in a driver)",
	},
	{
		name:  "one tenant path",
		pkgs:  []string{"internal/bench"},
		check: imports("internal/queue"),
		msg:   "a figure's tenants are a scenario's tenants: declare them in a scenario.Scenario and run it",
	},
	{
		name: "one completion path",
		pkgs: []string{"..."},
		// The benchmark module keeps its sim.NewCond call until
		// sched.Attacher goes with it.
		skip:  []string{"internal/sim", "benchmark/..."},
		tests: true,
		check: selects("internal/sim", "Cond", "NewCond"),
		msg:   "a second notification path: remember the one waiter and Unpark it (sim.Proc.Park) instead",
	},
	{
		name:  "one hand-off mechanism",
		pkgs:  []string{"internal/sim"},
		check: goOrChan,
		msg:   "a second way to switch processes: use the coroutine in proc.go",
	},
	{
		name:  "one record per rail",
		pkgs:  []string{"internal/core"},
		check: sliceFields("feeding", "railFreeAt", "railFailed", "railRetrans", "pendingPinned"),
		msg:   "a second per-rail slice: put the field on rail",
	},
	{
		name:  "one body path",
		pkgs:  []string{"internal/core"},
		check: rdmaFrame,
		msg:   "an RDMA body chunk is read from the caller's memory; a reliable send stays pending until the done entry instead of keeping a frame",
	},
	{
		name:  "the format has one definition",
		pkgs:  []string{"internal/scenario"},
		check: handKeptLists,
		msg:   "internal/scenario spells a key or name list by hand",
	},
}

// archRow is one architecture rule.
type archRow struct {
	name  string
	pkgs  []string // module-relative package paths; "x/..." is x and every package below it, "..." all
	skip  []string // taken out of pkgs, same form
	tests bool     // the packages' test files too; check must then do without archFile.info
	check func(f archFile, report func(ast.Node))
	msg   string // what a finding prints after its position
}

// archFile is one file a row checks.
type archFile struct {
	*ast.File
	info *types.Info    // nil for a test file: parsed, not type-checked
	pkg  *types.Package // the file's package
	mod  string         // import path of the module
}

// covers reports whether the row checks the package at module-relative
// path rel ("" for the module's root package).
func (row archRow) covers(rel string) bool {
	match := func(patterns []string) bool {
		return slices.ContainsFunc(patterns, func(p string) bool {
			dir, tree := strings.CutSuffix(p, "/...")
			return p == "..." || rel == dir || tree && strings.HasPrefix(rel, dir+"/")
		})
	}
	return match(row.pkgs) && !match(row.skip)
}

// importPath is the path of the package x names, when x spells the name
// of one of the file's imports, and "" otherwise. It reads what the file
// spells, so it works on test files too.
func (f archFile) importPath(x ast.Expr) string {
	id, ok := x.(*ast.Ident)
	if !ok {
		return ""
	}
	for _, spec := range f.Imports {
		p, _ := strconv.Unquote(spec.Path.Value)
		name := path.Base(p)
		if spec.Name != nil {
			name = spec.Name.Name
		}
		if name == id.Name {
			return p
		}
	}
	return ""
}

// callsPanic reports every call of the builtin panic.
func callsPanic(f archFile, report func(ast.Node)) {
	panicFn := types.Universe.Lookup("panic")
	ast.Inspect(f.File, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && f.info.Uses[id] == panicFn {
				report(call)
			}
		}
		return true
	})
}

// imports reports an import of the module's package at rel.
func imports(rel string) func(archFile, func(ast.Node)) {
	return func(f archFile, report func(ast.Node)) {
		for _, spec := range f.Imports {
			if p, _ := strconv.Unquote(spec.Path.Value); p == f.mod+"/"+rel {
				report(spec)
			}
		}
	}
}

// selects reports every selector of one of names on an import of the
// module's package at rel.
func selects(rel string, names ...string) func(archFile, func(ast.Node)) {
	return func(f archFile, report func(ast.Node)) {
		ast.Inspect(f.File, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && slices.Contains(names, sel.Sel.Name) && f.importPath(sel.X) == f.mod+"/"+rel {
				report(sel)
			}
			return true
		})
	}
}

// goOrChan reports every go statement and every channel type.
func goOrChan(f archFile, report func(ast.Node)) {
	ast.Inspect(f.File, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.GoStmt, *ast.ChanType:
			report(n)
		}
		return true
	})
}

// sliceFields reports every struct field of one of names whose type is a
// slice.
func sliceFields(names ...string) func(archFile, func(ast.Node)) {
	return func(f archFile, report func(ast.Node)) {
		ast.Inspect(f.File, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fl := range st.Fields.List {
				for _, id := range fl.Names {
					if v, ok := f.info.Defs[id].(*types.Var); ok && slices.Contains(names, id.Name) {
						if _, slice := v.Type().Underlying().(*types.Slice); slice {
							report(id)
						}
					}
				}
			}
			return true
		})
	}
}

// rdmaFrame reports every call of a method named SendFrame with the
// constant simnet.TxRdma among its arguments.
func rdmaFrame(f archFile, report func(ast.Node)) {
	var rdma types.Object
	for _, imp := range f.pkg.Imports() {
		if imp.Path() == f.mod+"/internal/simnet" {
			rdma = imp.Scope().Lookup("TxRdma")
		}
	}
	if rdma == nil {
		return
	}
	ast.Inspect(f.File, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); !ok || sel.Sel.Name != "SendFrame" || f.info.Selections[sel] == nil {
			return true
		}
		found := false
		for _, arg := range call.Args {
			ast.Inspect(arg, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && f.info.Uses[id] == rdma {
					found = true
				}
				return !found
			})
		}
		if found {
			report(call)
		}
		return true
	})
}

// knownList is what a hand-kept name list in a message looks like; a
// format verb, "(known: %s)", is the list derived from a table.
var knownList = regexp.MustCompile(`known: [a-z]`)

// handKeptLists reports the name strictKeys, declared or used, and a
// string literal holding a typed-out name list.
func handKeptLists(f archFile, report func(ast.Node)) {
	ast.Inspect(f.File, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if n.Name == "strictKeys" {
				report(n)
			}
		case *ast.BasicLit:
			if s, err := strconv.Unquote(n.Value); n.Kind == token.STRING && err == nil && knownList.MatchString(s) {
				report(n)
			}
		}
		return true
	})
}

// modulePath is the path the go.mod file in dir declares.
func modulePath(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return strings.Trim(f[1], `"`), nil
		}
	}
	return "", fmt.Errorf("%s/go.mod declares no module", dir)
}

// architecture checks rows over the packages of r's first module. A row
// that covers no package is an error: the paths it names have moved.
func (r exportRule) architecture(rows []archRow) ([]finding, error) {
	module, err := modulePath(r.modules[0])
	if err != nil {
		return nil, err
	}
	pkgs, err := r.load()
	if err != nil {
		return nil, err
	}
	var findings []finding
	for _, row := range rows {
		covered := false
		for _, p := range pkgs {
			inModule := p.Path == module || strings.HasPrefix(p.Path, module+"/")
			if !inModule || !row.covers(strings.TrimPrefix(p.Path[len(module):], "/")) {
				continue
			}
			covered = true
			var files []archFile
			for _, f := range p.Files {
				files = append(files, archFile{f, p.Info, p.Types, module})
			}
			if row.tests {
				tests, err := testFiles(p)
				if err != nil {
					return nil, err
				}
				for _, f := range tests {
					files = append(files, archFile{f, nil, p.Types, module})
				}
			}
			for _, f := range files {
				row.check(f, func(n ast.Node) {
					findings = append(findings, finding{p.Fset.Position(n.Pos()), row.msg})
				})
			}
		}
		if !covered {
			return nil, fmt.Errorf("row %q covers no package of %s", row.name, module)
		}
	}
	return findings, nil
}

// TestArchitecture applies the table to the repository.
func TestArchitecture(t *testing.T) {
	findings, err := nmadExports.architecture(architecture)
	if err != nil {
		t.Fatal(err)
	}
	root, err := filepath.Abs(nmadExports.modules[0])
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, f := range findings {
		rel, err := filepath.Rel(root, f.pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(rel), f.pos.Line, f.msg))
	}
	sort.Strings(lines)
	for _, l := range lines {
		t.Error(l)
	}
}

// The table on a module small enough to read: testdata/archmod mirrors the
// package paths the rows name, and every line a row must report carries a
// want; every other line, test files included, must pass.
func TestArchitectureOnFixture(t *testing.T) {
	rule := exportRule{modules: []string{"testdata/archmod"}}
	findings, err := rule.architecture(architecture)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	err = filepath.WalkDir(rule.modules[0], func(name string, d fs.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(name, ".go") {
			return err
		}
		abs, err := filepath.Abs(name)
		names = append(names, abs)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	matchWants(t, parseWants(t, names), findings)
}
