package scenario

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"nmad/internal/trace"
)

// -update rewrites the corpus golden from the current engine:
//
//	go test ./internal/scenario -run CorpusGolden -update
var update = flag.Bool("update", false, "rewrite testdata/corpus.golden")

const (
	corpusDir    = "../../scenarios"
	corpusGolden = "testdata/corpus.golden"
)

// TestCommittedCorpus validates and runs every scenario committed under
// scenarios/ at the repository root — the same sweep the CI scenarios
// job performs through nmad-sim. A corpus file whose assertions fail is
// a regression in either the scenario or the engine.
func TestCommittedCorpus(t *testing.T) {
	scs, bad := ListDir(corpusDir)
	for name, err := range bad {
		t.Errorf("%s: %v", name, err)
	}
	if len(scs) < 6 {
		t.Fatalf("corpus holds %d scenarios, want at least 6", len(scs))
	}
	for _, sc := range scs {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			rep, err := Run(sc, Config{})
			if err != nil {
				var buf bytes.Buffer
				if rep != nil {
					rep.Write(&buf)
				}
				t.Fatalf("%v\n%s", err, buf.String())
			}
		})
	}
}

// TestCorpusGolden pins what the committed corpus prints: for every
// scenario, in file-name order, the `nmad-sim run -v` text (the phase and
// event lines, then the report) and the size and SHA-256 of the recording
// the run captures. Every line is virtual time or a counter, so any byte
// of drift is an engine decision that changed; a change meant to cost
// less host time leaves the file as it is, with no -update.
func TestCorpusGolden(t *testing.T) {
	scs, bad := ListDir(corpusDir)
	for name, err := range bad {
		t.Fatalf("%s: %v", name, err)
	}
	var out bytes.Buffer
	for _, sc := range scs {
		rec := trace.NewRecording()
		rep, err := Run(sc, Config{Verbose: &out, Record: rec})
		if rep != nil {
			rep.Write(&out)
		}
		if err != nil {
			fmt.Fprintf(&out, "error: %v\n", err)
		}
		var jsonl bytes.Buffer
		if err := rec.Write(&jsonl); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "recording: %d operations, sha256 %x\n", rec.Len(), sha256.Sum256(jsonl.Bytes()))
	}
	got := out.String()
	if *update {
		if err := os.WriteFile(corpusGolden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(corpusGolden)
	if err != nil {
		t.Fatalf("no corpus golden (regenerate with -update and review the diff): %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("corpus drifted from %s at line %d:\n got: %s\nwant: %s\n(regenerate with -update and review the diff)",
				corpusGolden, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("corpus drifted from %s: %d lines vs %d (regenerate with -update and review the diff)",
		corpusGolden, len(gl), len(wl))
}
