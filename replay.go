package nmad

import (
	"nmad/internal/replay"
	"nmad/internal/trace"
)

// Record/replay surface of the facade: capture a run's offered load once
// (WithRecording), then re-drive it under any strategy, credit budget or
// rail set — exact A/B comparisons on identical submission timing, and
// deterministic golden-timeline regression tests.
//
//	rec := nmad.NewRecording()
//	e, _ := cl.Engine(0, nmad.WithRecording(rec))   // every engine of the cluster
//	... run the workload, then persist: rec.Write(f)
//
//	loaded, _ := nmad.ReadRecording(f)
//	results, _ := nmad.ReplayAB(loaded, []string{"default", "aggreg"})

// Recording is the machine-readable offered load of a run: every
// application-level submission with its virtual-time offset, plus the
// cluster topology to reconstruct the machine. Serialized as versioned
// JSONL (see RecordingVersion).
type Recording = trace.Recording

// RecordedOp is one recorded application-level operation.
type RecordedOp = trace.Op

// RecordingVersion is the current recording format version. Readers
// accept any version up to it; breaking format changes bump it.
const RecordingVersion = trace.RecordingVersion

var (
	// NewRecording creates an empty recording to attach via
	// WithRecording.
	NewRecording = trace.NewRecording
	// ReadRecording parses a JSONL recording written by Recording.Write.
	ReadRecording = trace.ReadRecording
)

// ReplayConfig selects what varies between the recording and the
// replay: strategy, credit budget, grant cap, rail set. The zero value
// replays the recording exactly as recorded.
type ReplayConfig = replay.Config

// ReplayResult is one replayed schedule: completion time, per-node
// engine counters, wire footprint and the per-node event timelines.
type ReplayResult = replay.Result

// UndrainedError is what Replay returns when the recording's load cannot
// finish — a receive whose send is missing, a synchronous send nobody
// matches; it names the stranded operations. Match it with errors.As.
type UndrainedError = replay.UndrainedError

var (
	// Replay re-drives a recording under one configuration.
	Replay = replay.Run
	// ReplayAB re-drives a recording under several strategies, in order.
	ReplayAB = replay.AB
)
