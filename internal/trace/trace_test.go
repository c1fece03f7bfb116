package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"nmad/internal/sim"
)

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder()
	if r.Total() != 0 || len(r.Events()) != 0 {
		t.Error("fresh recorder not empty")
	}
	r.Record(Event{At: 10, Kind: Submit, Node: 0, Peer: 1, Bytes: 64})
	r.Record(Event{At: 20, Kind: Elect, Node: 0, Peer: 1, Rail: 0, Entries: 3})
	r.Record(Event{At: 30, Kind: Depart, Node: 0, Peer: 1, Rail: 0, Bytes: 200})
	if r.Total() != 3 {
		t.Errorf("Total = %d", r.Total())
	}
	if r.Count(Elect) != 1 || r.Count(Submit) != 1 || r.Count(Arrive) != 0 {
		t.Error("per-kind counters wrong")
	}
	evs := r.Events()
	if len(evs) != 3 || evs[0].Kind != Submit || evs[2].Kind != Depart {
		t.Errorf("events %v", evs)
	}
	if got := r.Filter(Elect); len(got) != 1 || got[0].Entries != 3 {
		t.Errorf("Filter(Elect) = %v", got)
	}
}

// An unbounded recorder keeps everything, in order, across the slice's
// growth steps.
func TestUnboundedRecorderKeepsOrder(t *testing.T) {
	const n = 10_000
	r := NewRecorder()
	for i := 0; i < n; i++ {
		r.Record(Event{At: sim.Time(i), Kind: Submit})
	}
	evs := r.Events()
	if len(evs) != n || r.Total() != n {
		t.Fatalf("retained %d of %d events (Total %d)", len(evs), n, r.Total())
	}
	for i, ev := range evs {
		if ev.At != sim.Time(i) {
			t.Fatalf("events[%d].At = %v, want %d", i, ev.At, i)
		}
	}
}

// Events of an unbounded recorder is its own storage, not a copy: a run
// that reads every node's timeline once pays for no second one. The
// slice is capped at its length, so a later Record leaves it as it was
// and an append to it cannot reach the recorder's next slot.
func TestUnboundedEventsSharesStorage(t *testing.T) {
	r := NewRecorder()
	r.Record(Event{At: 1, Kind: Submit})
	r.Record(Event{At: 2, Kind: Elect})
	evs := r.Events()
	if &evs[0] != &r.Events()[0] {
		t.Error("an unbounded recorder's Events copied its storage")
	}
	if cap(evs) != len(evs) {
		t.Errorf("Events has capacity %d past its length %d", cap(evs), len(evs))
	}
	_ = append(evs, Event{At: 99, Kind: Depart})
	r.Record(Event{At: 3, Kind: Depart})
	if len(evs) != 2 || evs[0].At != 1 || evs[1].At != 2 {
		t.Errorf("a returned slice changed under later records: %v", evs)
	}
	if got := r.Events(); len(got) != 3 || got[2].At != 3 || got[2].Kind != Depart {
		t.Errorf("events after an append to a returned slice: %v", got)
	}
}

// A ring recorder still copies, even with its head at slot 0: once full
// it overwrites slot 0 in place, which a shared slice would show.
func TestRingEventsCopies(t *testing.T) {
	r := NewRingRecorder(2)
	r.Record(Event{At: 1, Kind: Submit})
	r.Record(Event{At: 2, Kind: Submit})
	evs := r.Events() // full, head at slot 0
	r.Record(Event{At: 3, Kind: Submit})
	r.Record(Event{At: 4, Kind: Submit}) // head back at slot 0
	if evs[0].At != 1 || evs[1].At != 2 {
		t.Errorf("a ring recorder's returned slice changed under later records: %v", evs)
	}
	if got := r.Events(); got[0].At != 3 || got[1].At != 4 {
		t.Errorf("ring retained %v, want instants 3 and 4", got)
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Record(Event{Kind: Submit})
	if r.Total() != 0 || r.Count(Submit) != 0 || r.Events() != nil {
		t.Error("nil recorder must be inert")
	}
	if !strings.Contains(r.Summary(), "disabled") {
		t.Errorf("nil summary %q", r.Summary())
	}
}

func TestRingEviction(t *testing.T) {
	r := NewRingRecorder(3)
	for i := 0; i < 7; i++ {
		r.Record(Event{At: sim.Time(i), Kind: Submit})
	}
	if r.Total() != 7 {
		t.Errorf("Total = %d, counters must survive eviction", r.Total())
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d, want 3", len(evs))
	}
	for i, ev := range evs {
		if ev.At != sim.Time(4+i) {
			t.Errorf("retained[%d].At = %v, want %d (chronological, most recent)", i, ev.At, 4+i)
		}
	}
}

func TestRingRejectsBadLimit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewRingRecorder(0) should panic")
		}
	}()
	NewRingRecorder(0)
}

func TestEventString(t *testing.T) {
	ev := Event{At: 1500, Kind: RdvStart, Node: 0, Peer: 1, Rail: 2, Tag: 0xAB, Bytes: 4096, Entries: 2, Note: "x"}
	s := ev.String()
	for _, want := range []string{"rdv-start", "node0", "peer=1", "rail=2", "tag=0xab", "bytes=4096", "entries=2", "(x)"} {
		if !strings.Contains(s, want) {
			t.Errorf("event line %q missing %q", s, want)
		}
	}
	// Unset optional fields stay out.
	s2 := Event{Kind: Submit, Peer: -1, Rail: -1}.String()
	for _, absent := range []string{"peer=", "rail=", "tag=", "bytes="} {
		if strings.Contains(s2, absent) {
			t.Errorf("minimal event line %q should omit %q", s2, absent)
		}
	}
}

func TestDumpAndSummary(t *testing.T) {
	r := NewRecorder()
	r.Record(Event{At: 5, Kind: Submit, Peer: -1, Rail: -1})
	r.Record(Event{At: 6, Kind: Complete, Peer: -1, Rail: -1})
	var buf bytes.Buffer
	if err := r.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 2 {
		t.Errorf("dump has %d lines, want 2", lines)
	}
	sum := r.Summary()
	if !strings.Contains(sum, "2 events") || !strings.Contains(sum, "submit=1") {
		t.Errorf("summary %q", sum)
	}
}

func TestKindString(t *testing.T) {
	if Submit.String() != "submit" || RdvBody.String() != "rdv-body" {
		t.Error("kind names wrong")
	}
	if !strings.Contains(Kind(200).String(), "200") {
		t.Error("unknown kind should show its number")
	}
}

func TestWriteChrome(t *testing.T) {
	r := NewRecorder()
	r.Record(Event{At: 1500, Kind: Depart, Node: 0, Peer: 1, Rail: 0, Bytes: 128, Entries: 4})
	r.Record(Event{At: 2500, Kind: Arrive, Node: 1, Peer: 0, Rail: 0, Bytes: 128})
	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v", err)
	}
	if len(out) != 2 {
		t.Fatalf("%d chrome events, want 2", len(out))
	}
	if out[0]["name"] != "depart" || out[0]["ph"] != "i" {
		t.Errorf("chrome event %v", out[0])
	}
	if ts, ok := out[0]["ts"].(float64); !ok || ts != 1.5 {
		t.Errorf("ts = %v, want 1.5 µs", out[0]["ts"])
	}
	if pid, _ := out[1]["pid"].(float64); pid != 1 {
		t.Errorf("pid = %v, want the node id", out[1]["pid"])
	}
}
