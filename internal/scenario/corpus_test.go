package scenario

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"nmad/internal/sim"
	"nmad/internal/trace"
)

// -update rewrites the corpus and trace goldens from the current engine:
//
//	go test ./internal/scenario -run 'CorpusGolden|CorpusTraced' -update
var update = flag.Bool("update", false, "rewrite testdata/corpus.golden and testdata/trace.golden")

const (
	corpusDir    = "../../scenarios"
	corpusGolden = "testdata/corpus.golden"
	traceGolden  = "testdata/trace.golden"
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
	checkGolden(t, corpusGolden, out.String())
}

// TestCorpusTraced: tracing watches a run without changing it. Every
// committed scenario run with Config.Trace prints the same report and
// ends with the same counters as without; its one shared timeline is in
// time order and names every node. The per-kind event counts of each
// run are pinned in testdata/trace.golden, which sees what the engines
// decided and corpus.golden does not.
func TestCorpusTraced(t *testing.T) {
	scs, bad := ListDir(corpusDir)
	for name, err := range bad {
		t.Fatalf("%s: %v", name, err)
	}
	var summaries strings.Builder
	for _, sc := range scs {
		plain, plainErr := Run(sc, Config{})
		rec := trace.NewRecorder()
		traced, tracedErr := Run(sc, Config{Trace: rec})
		if plainErr != nil || tracedErr != nil {
			t.Fatalf("%s: %v / traced: %v", sc.Name, plainErr, tracedErr)
		}
		var want, got bytes.Buffer
		plain.Write(&want)
		traced.Write(&got)
		if got.String() != want.String() || !reflect.DeepEqual(traced.Stats, plain.Stats) || !reflect.DeepEqual(traced.Faults, plain.Faults) {
			t.Errorf("%s: tracing changed the run:\n--- traced\n%s--- untraced\n%s", sc.Name, got.String(), want.String())
		}
		seen := make([]bool, sc.Cluster.Nodes)
		var last sim.Time
		for i, ev := range rec.Events() {
			if ev.At < last {
				t.Errorf("%s: event %d at %v precedes its predecessor at %v", sc.Name, i, ev.At, last)
			}
			last = ev.At
			seen[ev.Node] = true
		}
		for node, ok := range seen {
			if !ok {
				t.Errorf("%s: node %d recorded no event", sc.Name, node)
			}
		}
		fmt.Fprintf(&summaries, "%s: %s\n", sc.Name, rec.Summary())
	}
	checkGolden(t, traceGolden, summaries.String())
}

// checkGolden compares got with the golden file, or rewrites the file
// under -update.
func checkGolden(t *testing.T, golden, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("no golden %s (regenerate with -update and review the diff): %v", golden, err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("drifted from %s at line %d:\n got: %s\nwant: %s\n(regenerate with -update and review the diff)",
				golden, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("drifted from %s: %d lines vs %d (regenerate with -update and review the diff)",
		golden, len(gl), len(wl))
}
