package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"nmad/internal/sim"
	"nmad/internal/simnet"
)

func buildFabric(t *testing.T, m simnet.Machine) *simnet.Fabric {
	t.Helper()
	f, err := m.Build()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestRecordingTopologyRegistration(t *testing.T) {
	rec := NewRecording()
	hdr := rec.Header()
	if hdr.Format != recordingFormat || hdr.Version != RecordingVersion {
		t.Fatalf("fresh recording header %+v", hdr)
	}
	rails := []simnet.Profile{simnet.MX10G(), simnet.QsNetII()}
	rec.RegisterFabric(buildFabric(t, simnet.Machine{Nodes: 4, Rails: rails}))
	// First registration wins; a second (same fabric, next engine) is a
	// no-op.
	rec.RegisterFabric(buildFabric(t, simnet.Machine{Nodes: 2, Rails: rails[:1], Host: simnet.Host{MemcpyBandwidth: 1}}))
	hdr = rec.Header()
	if hdr.Nodes != 4 || len(hdr.Rails) != 2 || hdr.Rails[0].Name != "mx10g" {
		t.Errorf("topology after double registration: %+v", hdr)
	}
	rec.RegisterEngine(5, NodeConfig{Strategy: "aggreg"})
	if rec.Header().Nodes != 6 {
		t.Errorf("RegisterEngine(5) did not grow nodes: %d", rec.Header().Nodes)
	}
	rec.RecordOp(Op{Node: 2, Peer: 7, Kind: OpSend, Segs: []int{1}})
	if rec.Header().Nodes != 8 {
		t.Errorf("RecordOp peer 7 did not grow nodes: %d", rec.Header().Nodes)
	}
}

func TestRecordingNilSafety(t *testing.T) {
	var rec *Recording
	rec.RecordOp(Op{Kind: OpSend})
	rec.RegisterEngine(0, NodeConfig{})
	rec.RegisterFabric(nil)
	if rec.Len() != 0 {
		t.Error("nil recording has length")
	}
}

func TestReadRecordingErrors(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"not json":       "hello\n",
		"wrong format":   `{"format":"chrome-trace","version":1}` + "\n",
		"version zero":   `{"format":"nmad-recording","version":0}` + "\n",
		"future version": `{"format":"nmad-recording","version":2}` + "\n",
		"unknown op":     `{"format":"nmad-recording","version":1,"nodes":2}` + "\n" + `{"op":"warp","node":0,"peer":1}` + "\n",
		"corrupt op":     `{"format":"nmad-recording","version":1,"nodes":2}` + "\n" + `{"op":` + "\n",
	}
	for name, in := range cases {
		if _, err := ReadRecording(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestRecordingWriteReadEmptyOps(t *testing.T) {
	rec := NewRecording()
	rec.RegisterFabric(buildFabric(t, simnet.Machine{Nodes: 2, Rails: []simnet.Profile{simnet.MX10G()}}))
	rec.RegisterEngine(0, NodeConfig{Strategy: "aggreg", SubmitOverhead: 150, ScheduleOverhead: 150})
	var buf bytes.Buffer
	if err := rec.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRecording(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec.Header(), back.Header()) {
		t.Errorf("header round-trip:\n got %+v\nwant %+v", back.Header(), rec.Header())
	}
	if back.Len() != 0 {
		t.Errorf("ops appeared from nowhere: %d", back.Len())
	}
}

// RecordOp keeps nothing of its caller's: a caller that reuses its
// lengths buffer, as the engine's record path does, must not rewrite the
// ops it has already recorded. The log spans several op and arena
// chunks, one list larger than an arena chunk, and both the nil and the
// empty segment list (they serialize differently), and it stays whole
// across an Ops call in the middle of recording.
func TestRecordOpCopiesSegs(t *testing.T) {
	rec := NewRecording()
	var want []Op
	lens := make([]int, maxSegChunk+1)
	record := func(i int) {
		var segs []int
		switch {
		case i%97 == 1:
			// nil
		case i%97 == 2:
			segs = lens[:0]
		case i == 1500:
			segs = lens
		default:
			segs = lens[:1+i%3]
		}
		for j := range segs {
			segs[j] = i + j
		}
		op := Op{At: sim.Time(i), Node: i % 4, Peer: (i + 1) % 4, Kind: OpSend, Tag: uint64(i), Segs: segs, Rail: -1}
		rec.RecordOp(op)
		if segs != nil {
			op.Segs = append([]int{}, segs...)
		}
		want = append(want, op)
		for j := range lens {
			lens[j] = -1 // the caller reuses its buffer
		}
	}
	for i := range 1000 {
		record(i)
	}
	if got := rec.Ops(); !reflect.DeepEqual(got, want) {
		t.Fatal("ops recorded before the first Ops call changed with the caller's buffer")
	}
	for i := 1000; i < 3000; i++ {
		record(i)
	}
	got := rec.Ops()
	if rec.Len() != len(want) || !reflect.DeepEqual(got, want) {
		t.Fatalf("Len %d, ops differ from what was recorded (want %d)", rec.Len(), len(want))
	}
	if again := rec.Ops(); &again[0] != &got[0] {
		t.Error("a second Ops call copied the log again")
	}
	var written, lines bytes.Buffer
	if err := rec.Write(&written); err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(&lines)
	if err := enc.Encode(rec.Header()); err != nil {
		t.Fatal(err)
	}
	for _, op := range want {
		if err := enc.Encode(op); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(written.Bytes(), lines.Bytes()) {
		t.Error("Write output differs from the ops as recorded")
	}
}
