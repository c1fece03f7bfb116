package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The dead-code rule, the export rule's other half: an unexported
// package-level function or method declared in a non-test file of a
// checked package (everything under internal/, plus the public packages)
// must be referred to by something in its own package —
//
//   - a non-test file uses it, by call or by value, outside its own body
//     (a function that only calls itself is not used);
//   - an in-package test file spells its name (test files are parsed, not
//     type-checked, so a matching identifier is taken as a reference);
//   - it is a method whose name an interface written in either module
//     declares (it is reached through the interface, not by name).
//
// Anything else is a finding: delete it. There is no allow file — nothing
// in the tree needs one; if a finding ever has to stay, give this rule the
// export rule's allow file rather than a second one.
func (r exportRule) dead() ([]string, error) {
	pkgs, err := r.load()
	if err != nil {
		return nil, err
	}
	byIface := ifaceMethods(pkgs)

	var findings []string
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path, r.internal) && !slices.Contains(r.public, p.Path) {
			continue
		}
		decls := map[*types.Func]*ast.FuncDecl{}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.IsExported() || fd.Name.Name == "init" || fd.Name.Name == "main" || fd.Name.Name == "_" {
					continue
				}
				if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = fd
				}
			}
		}
		if len(decls) == 0 {
			continue
		}
		used := map[*types.Func]bool{}
		for id, obj := range p.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if fd := decls[fn]; fd != nil && (id.Pos() < fd.Pos() || id.Pos() >= fd.End()) {
				used[fn] = true
			}
		}
		tests, err := testFiles(p)
		if err != nil {
			return nil, err
		}
		inTests := map[string]bool{}
		for _, f := range tests {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					inTests[id.Name] = true
				}
				return true
			})
		}
		for fn, fd := range decls {
			if used[fn] || inTests[fn.Name()] || fd.Recv != nil && byIface[fn.Name()] {
				continue
			}
			// "<pkg>.<name>", or "<pkg>.<Type>.<name>" from FullName's
			// "(<pkg>.<Type>).<name>" / "(*<pkg>.<Type>).<name>".
			key := strings.NewReplacer("(*", "", "(", "", ")", "").Replace(fn.FullName())
			pos := p.Fset.Position(fd.Pos())
			findings = append(findings, fmt.Sprintf("%s: nothing in its package refers to it, tests included (%s:%d): delete it",
				key, filepath.Base(pos.Filename), pos.Line))
		}
	}
	sort.Strings(findings)
	return findings, nil
}

// testFiles parses the test files in p's directory. They are not
// type-checked, so a rule can only match what they spell.
func testFiles(p *Package) ([]*ast.File, error) {
	dir := filepath.Dir(p.Fset.Position(p.Files[0].Pos()).Filename)
	names, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// TestUnexportedHaveUsers applies the rule to the repository.
func TestUnexportedHaveUsers(t *testing.T) {
	findings, err := nmadExports.dead()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// The rule on the fixture module: see the second half of
// testdata/exportsmod/internal/a/a.go.
func TestDeadCodeRuleOnFixture(t *testing.T) {
	rule := exportRule{
		modules:  []string{"testdata/exportsmod", "testdata/exportsmod/benchmark"},
		internal: "fixture/internal/",
		public:   []string{"fixture/api"},
	}
	findings, err := rule.dead()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		key, _, _ := strings.Cut(f, ": ")
		got = append(got, key)
	}
	want := []string{"fixture/internal/a.Square.idle", "fixture/internal/a.deadHelper", "fixture/internal/a.loop"}
	if !slices.Equal(got, want) {
		t.Errorf("findings for\n\t%s\nwant\n\t%s", strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
	}
}
