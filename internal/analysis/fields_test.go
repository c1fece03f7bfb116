package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The field rule: a struct field declared in a non-test file of a checked
// package (everything under internal/, plus the public packages) that
// non-test code writes must be read by something —
//
//   - a write is an assignment with = to a selector, x.f++ or x.f--, or an
//     element of a composite literal, keyed or positional;
//   - every other use, in any package of either module, is a read
//     (x.f += n included);
//   - a selector of the field's name in an in-package test file is taken as
//     a read (test files are parsed, not type-checked, as in the dead-code
//     rule).
//
// Not checked: exported fields of exported types (the export rule and
// reflection readers cover those), fields with a struct tag, embedded
// fields, and the fields of a struct type used as a map key (comparing keys
// reads them). A field nobody writes is not this rule's question. There is
// no allow file.
func (r exportRule) writeOnly() ([]string, error) {
	pkgs, err := r.load()
	if err != nil {
		return nil, err
	}

	type decl struct {
		key string
		pos token.Position
		pkg *Package
	}
	fields := map[*types.Var]decl{}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path, r.internal) && !slices.Contains(r.public, p.Path) {
			continue
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				for _, fl := range st.Fields.List {
					if fl.Tag != nil {
						continue
					}
					for _, id := range fl.Names {
						if id.IsExported() && ts.Name.IsExported() {
							continue
						}
						if v, ok := p.Info.Defs[id].(*types.Var); ok {
							fields[v] = decl{p.Path + "." + ts.Name.Name + "." + id.Name, p.Fset.Position(id.Pos()), p}
						}
					}
				}
				return true
			})
		}
	}

	written, read := map[*types.Var]bool{}, map[*types.Var]bool{}
	// keyFields marks what comparing two values of t reads.
	var keyFields func(t types.Type)
	keyFields = func(t types.Type) {
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if v := u.Field(i).Origin(); !read[v] {
					read[v] = true
					keyFields(v.Type())
				}
			}
		case *types.Array:
			keyFields(u.Elem())
		}
	}
	for _, p := range pkgs {
		writes := map[*ast.Ident]bool{}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if n.Tok == token.ASSIGN {
						for _, lhs := range n.Lhs {
							if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
								writes[sel.Sel] = true
							}
						}
					}
				case *ast.IncDecStmt:
					if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
						writes[sel.Sel] = true
					}
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						writes[id] = true
					}
				case *ast.CompositeLit:
					st, ok := p.Info.Types[n].Type.Underlying().(*types.Struct)
					if !ok || len(n.Elts) == 0 {
						break
					}
					if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
						for i := range n.Elts {
							written[st.Field(i).Origin()] = true
						}
					}
				}
				return true
			})
		}
		for id, obj := range p.Info.Uses {
			if v, ok := obj.(*types.Var); ok && v.IsField() {
				if writes[id] {
					written[v.Origin()] = true
				} else {
					read[v.Origin()] = true
				}
			}
		}
		for _, tv := range p.Info.Types {
			if m, ok := tv.Type.Underlying().(*types.Map); ok {
				keyFields(m.Key())
			}
		}
	}

	inTests := map[*Package]map[string]bool{}
	var findings []string
	for v, d := range fields {
		if !written[v] || read[v] {
			continue
		}
		if inTests[d.pkg] == nil {
			files, err := testFiles(d.pkg)
			if err != nil {
				return nil, err
			}
			sels := map[string]bool{}
			for _, f := range files {
				ast.Inspect(f, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok {
						sels[sel.Sel.Name] = true
					}
					return true
				})
			}
			inTests[d.pkg] = sels
		}
		if inTests[d.pkg][v.Name()] {
			continue
		}
		findings = append(findings, fmt.Sprintf("%s: written but never read (%s:%d): delete it",
			d.key, filepath.Base(d.pos.Filename), d.pos.Line))
	}
	sort.Strings(findings)
	return findings, nil
}

// TestFieldsAreRead applies the rule to the repository.
func TestFieldsAreRead(t *testing.T) {
	findings, err := nmadExports.writeOnly()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// The rule on the fixture module: see testdata/exportsmod/internal/a/fields.go.
func TestFieldRuleOnFixture(t *testing.T) {
	rule := exportRule{
		modules:  []string{"testdata/exportsmod", "testdata/exportsmod/benchmark"},
		internal: "fixture/internal/",
		public:   []string{"fixture/api"},
	}
	findings, err := rule.writeOnly()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		key, _, _ := strings.Cut(f, ": ")
		got = append(got, key)
	}
	want := []string{"fixture/internal/a.record.counter", "fixture/internal/a.record.writeOnly"}
	if !slices.Equal(got, want) {
		t.Errorf("findings for\n\t%s\nwant\n\t%s", strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
	}
}
