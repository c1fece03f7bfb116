// Package analysis is nmad's static-analysis suite: a small, dependency
// free re-implementation of the golang.org/x/tools/go/analysis model
// (Analyzer, Pass, diagnostics, testdata fixtures) plus the project
// analyzers that machine-check the engine's determinism, locking and SPI
// invariants. The cmd/nmad-vet binary drives the suite either standalone
// (nmad-vet ./...) or under the go command's vet protocol
// (go vet -vettool=nmad-vet ./...).
//
// Findings can be suppressed, one site at a time, with an allow comment
// on the flagged line or the line directly above it:
//
//	//nmadvet:allow <analyzer>(<reason>)
//
// The reason is mandatory — an allow without one is itself a finding —
// and an allow that suppresses nothing is reported as stale, so the
// annotations cannot rot.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name is the identifier used in allow comments and diagnostics.
	Name string
	// Doc is the one-paragraph description nmad-vet help prints.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]diagnostic
}

// diagnostic is one finding.
type diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// reportf records a finding at pos.
func (p *Pass) reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full nmad-vet suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{determinismAnalyzer, sentinelCmpAnalyzer, spiLeakAnalyzer}
}

// runAnalyzers runs every analyzer over one loaded package, applies the
// allow comments, and returns the surviving diagnostics sorted by
// position. Stale and malformed allow comments surface as "nmadvet"
// diagnostics of their own.
func runAnalyzers(pkg *Package, analyzers []*Analyzer) []diagnostic {
	var raw []diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			diags:    &raw,
		}
		if err := a.Run(pass); err != nil {
			raw = append(raw, diagnostic{Analyzer: a.Name, Message: err.Error()})
		}
	}
	allows, broken := collectAllows(pkg, analyzers)
	var out []diagnostic
	for _, d := range raw {
		if al := allows.match(d); al != nil {
			al.used = true
			continue
		}
		out = append(out, d)
	}
	out = append(out, broken...)
	for _, al := range allows.list {
		if !al.used {
			out = append(out, diagnostic{
				Analyzer: "nmadvet",
				Pos:      al.pos,
				Message:  fmt.Sprintf("stale //nmadvet:allow %s comment: it suppresses no finding", al.analyzer),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	return out
}

// allow is one parsed //nmadvet:allow comment.
type allow struct {
	analyzer string
	file     string
	line     int // the comment's own line; it covers this line and the next
	pos      token.Position
	used     bool
}

type allowSet struct{ list []*allow }

func (s *allowSet) match(d diagnostic) *allow {
	for _, al := range s.list {
		if al.analyzer != d.Analyzer || al.file != d.Pos.Filename {
			continue
		}
		if d.Pos.Line == al.line || d.Pos.Line == al.line+1 {
			return al
		}
	}
	return nil
}

// allowRe tolerates trailing text after the closing paren so fixtures
// can stack `// want` expectations on allow lines.
var allowRe = regexp.MustCompile(`^//nmadvet:allow\s+([a-z]+)\(([^)]*)\)`)

// collectAllows parses every allow comment in the package. Malformed
// comments (unknown analyzer, missing reason) come back as diagnostics.
func collectAllows(pkg *Package, analyzers []*Analyzer) (allowSet, []diagnostic) {
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var set allowSet
	var broken []diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//nmadvet:") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				if c.Text == deterministicMarker {
					continue // file-level opt-in, handled by determinism
				}
				m := allowRe.FindStringSubmatch(c.Text)
				switch {
				case m == nil:
					broken = append(broken, diagnostic{
						Analyzer: "nmadvet",
						Pos:      pos,
						Message:  "malformed nmadvet comment: want //nmadvet:allow <analyzer>(<reason>)",
					})
				case !known[m[1]]:
					broken = append(broken, diagnostic{
						Analyzer: "nmadvet",
						Pos:      pos,
						Message:  fmt.Sprintf("//nmadvet:allow names unknown analyzer %q", m[1]),
					})
				case strings.TrimSpace(m[2]) == "":
					broken = append(broken, diagnostic{
						Analyzer: "nmadvet",
						Pos:      pos,
						Message:  "//nmadvet:allow needs a reason: //nmadvet:allow " + m[1] + "(why this site is safe)",
					})
				default:
					set.list = append(set.list, &allow{analyzer: m[1], file: pos.Filename, line: pos.Line, pos: pos})
				}
			}
		}
	}
	return set, broken
}

// isTestFile reports whether the file position sits in a _test.go file.
func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Package).Filename, "_test.go")
}
