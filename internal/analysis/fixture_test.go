package analysis

import (
	"fmt"
	"go/scanner"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The fixture harness: the analysistest model rebuilt on the package's
// own loader. Each directory under testdata/src is one Go package;
// lines carrying findings are annotated in place:
//
//	badCall() // want `regexp matching the message`
//
// Every diagnostic must match a want on its line and every want must be
// consumed, so fixtures pin both positives and negatives.

func runFixture(t *testing.T, fixture string, analyzers ...*Analyzer) {
	t.Helper()
	rel := "./" + filepath.Join("testdata", "src", fixture)
	pkgs, err := Load(".", rel)
	if err != nil {
		t.Fatalf("loading %s: %v", rel, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages from %s, want 1", len(pkgs), rel)
	}
	pkg := pkgs[0]
	var got []finding
	for _, d := range runAnalyzers(pkg, analyzers) {
		got = append(got, finding{d.Pos, d.Analyzer + ": " + d.Message})
	}
	var names []string
	for _, f := range pkg.Files {
		names = append(names, pkg.Fset.Position(f.Package).Filename)
	}
	matchWants(t, parseWants(t, names), got)
}

// finding is one diagnostic a fixture is checked against.
type finding struct {
	pos token.Position
	msg string
}

// matchWants fails t on every finding no want of its line matches and on
// every want no finding consumed.
func matchWants(t *testing.T, wants map[posKey][]*want, got []finding) {
	t.Helper()
	for _, d := range got {
		key := posKey{d.pos.Filename, d.pos.Line}
		matched := false
		for _, w := range wants[key] {
			if !w.used && w.re.MatchString(d.msg) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding at %s:%d: %s", key.file, key.line, d.msg)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.used {
				t.Errorf("%s:%d: expected a finding matching %q, got none", key.file, key.line, w.re)
			}
		}
	}
}

type posKey struct {
	file string
	line int
}

type want struct {
	re   *regexp.Regexp
	used bool
}

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)

// parseWants scans the named fixture sources for `// want` annotations.
// It works on the raw file text (not the parsed comment lists) so wants
// survive inside any context.
func parseWants(t *testing.T, names []string) map[posKey][]*want {
	t.Helper()
	out := map[posKey][]*want{}
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			key := posKey{name, i + 1}
			for _, pat := range scanPatterns(t, name, i+1, m[1]) {
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", name, i+1, pat, err)
				}
				out[key] = append(out[key], &want{re: re})
			}
		}
	}
	return out
}

// scanPatterns splits the payload of a want comment into its quoted or
// backquoted string literals.
func scanPatterns(t *testing.T, file string, line int, payload string) []string {
	t.Helper()
	var s scanner.Scanner
	fset := token.NewFileSet()
	sf := fset.AddFile(fmt.Sprintf("%s:%d", file, line), -1, len(payload))
	s.Init(sf, []byte(payload), nil, 0)
	var out []string
	for {
		_, tok, lit := s.Scan()
		if tok == token.EOF || tok == token.SEMICOLON {
			break
		}
		if tok != token.STRING {
			t.Fatalf("%s:%d: want comment payload %q: expected string literals", file, line, payload)
		}
		v, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s:%d: bad want literal %s: %v", file, line, lit, err)
		}
		out = append(out, v)
	}
	return out
}
