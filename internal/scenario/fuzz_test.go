package scenario

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse hands arbitrary bytes to the YAML-subset parser and the schema
// decoder behind it, and whatever comes out to Validate: neither may
// panic, a refusal from Parse is typed (ErrSyntax or ErrSchema), and
// every violation Validate reports wraps one of the package sentinels.
// Run is never called — the fuzzer would only be building machines. The
// seeds are the documents the repository already commits: the corpus
// under scenarios/ and the hostile documents under testdata/hostile.
func FuzzParse(f *testing.F) {
	for _, src := range seedDocs(f) {
		f.Add(src)
	}
	sentinels := []error{ErrBadValue, ErrUnknownPhase, ErrUnknownAction, ErrUnknownAssert,
		ErrBadTarget, ErrPhaseOverlap, ErrUnknownCheckpoint}
	f.Fuzz(func(t *testing.T, src []byte) {
		sc, err := Parse(src)
		if err != nil {
			if !errors.Is(err, ErrSyntax) && !errors.Is(err, ErrSchema) {
				t.Errorf("Parse error is neither ErrSyntax nor ErrSchema: %v", err)
			}
			return
		}
	violations:
		for _, v := range Validate(sc) {
			for _, s := range sentinels {
				if errors.Is(v, s) {
					continue violations
				}
			}
			t.Errorf("Validate error wraps no sentinel: %v", v)
		}
	})
}

// seedDocs reads FuzzParse's seed documents.
func seedDocs(tb testing.TB) [][]byte {
	tb.Helper()
	var docs [][]byte
	for _, glob := range []string{"../../scenarios/*.yaml", "testdata/hostile/*.yaml"} {
		files, err := filepath.Glob(glob)
		if err != nil || len(files) == 0 {
			tb.Fatalf("%s: %d seed documents (err %v)", glob, len(files), err)
		}
		for _, path := range files {
			src, err := os.ReadFile(path)
			if err != nil {
				tb.Fatal(err)
			}
			docs = append(docs, src)
		}
	}
	return docs
}
