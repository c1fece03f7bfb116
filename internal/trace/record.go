package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"nmad/internal/sim"
	"nmad/internal/simnet"
)

// Recording is the machine-readable record/replay format: the offered
// load of a run, separated from the scheduling decisions made on it. It
// captures every application-level submission (Isend/Isendv/Irecv/pack
// pieces) with its virtual-time offset, flow/gate/size/options metadata,
// plus enough cluster topology (rail profiles, host model, per-node
// engine personalities) to reconstruct the machine — so the same load
// can be re-driven under a different strategy, credit budget or rail
// set (package replay), turning recorded timelines into exact A/B
// comparisons and deterministic regression tests.
//
// The serialized form is versioned JSONL: one header object on the first
// line, then one operation object per line in submission order.
//
// Compatibility policy: readers accept any recording whose format tag
// matches and whose version is at most RecordingVersion. Unknown fields
// are ignored (new minor metadata may be added without a version bump);
// any change to the meaning of existing fields bumps RecordingVersion
// and is listed here:
//
//	version 1: initial format.
const (
	// recordingFormat tags the header line of every recording.
	recordingFormat = "nmad-recording"
	// RecordingVersion is the current (and maximum readable) format
	// version.
	RecordingVersion = 1
)

// Op kinds: the application-level operations a recording re-drives.
const (
	// OpSend is an Isend/Isendv submission (pack pieces record as
	// independent sends — they submit identical wrappers).
	OpSend = "send"
	// OpRecv is an Irecv/Irecvv/IrecvMasked posting.
	OpRecv = "recv"
)

// Op is one recorded application-level operation.
type Op struct {
	// At is the virtual time the operation entered the engine (before
	// the submit overhead is charged; replay re-charges it).
	At sim.Time `json:"at"`
	// Node issued the operation; Peer is the gate it addressed.
	Node int `json:"node"`
	Peer int `json:"peer"`
	// Kind is OpSend or OpRecv.
	Kind string `json:"op"`
	// Tag is the flow tag of a send, or the wanted tag of a receive.
	Tag uint64 `json:"tag"`
	// Mask is the receive's tag mask (receives only; all-ones for exact
	// matches).
	Mask uint64 `json:"mask,omitempty"`
	// Segs are the iovec segment lengths: the payload layout of a send,
	// the landing layout of a receive.
	Segs []int `json:"segs"`
	// Scheduling options of a send.
	Priority    bool `json:"priority,omitempty"`
	Unordered   bool `json:"unordered,omitempty"`
	Synchronous bool `json:"sync,omitempty"`
	// Rail pins the send to one rail; -1 is the load-balanced common
	// list.
	Rail int `json:"rail"`
}

// NodeConfig is the engine personality of one node: every option that
// shapes a schedule. core.Options embeds it, so this is the one place an
// engine option is declared — the recording stores it as is, replay
// rebuilds core.Options around it (and may override parts of it), and the
// scenario decoder fills it from a cluster.engine block: a field is a
// scenario key under its JSON name unless it is tagged `yaml:"-"` (the
// paper's measured overheads are constants of the model, not knobs).
type NodeConfig struct {
	// Strategy selects the optimization function by registry name.
	// Default: "aggreg" (the paper's aggregation strategy).
	Strategy string `json:"strategy"`
	// SubmitOverhead is the host software cost charged per request
	// entering the collect layer (wrapping + list insertion). Together
	// with ScheduleOverhead it reproduces the §5.1 constant overhead of
	// MAD-MPI versus the synchronous MPIs.
	SubmitOverhead sim.Time `json:"submit_overhead" yaml:"-"`
	// ScheduleOverhead is the host cost charged per output packet for
	// inspecting the ready list and running the optimization function.
	ScheduleOverhead sim.Time `json:"schedule_overhead" yaml:"-"`
	// BodyChunk caps the size of one rendezvous body transaction; larger
	// bodies are pipelined in BodyChunk pieces. 0 means one transaction
	// per rail share.
	BodyChunk int `json:"body_chunk,omitempty"`
	// Anticipate enables the second scheduling mode of §3.2: while a rail
	// is busy, the engine pre-builds one ready-to-send packet so the rail
	// can be re-fed the instant it idles, hiding the election cost
	// (ScheduleOverhead) behind the previous transmission. The packet is
	// built from the backlog present at pre-election time; wrappers
	// submitted after it stay in the window for the next round.
	Anticipate bool `json:"anticipate,omitempty"`
	// FlushBacklog enables the third scheduling mode of §3.2: once the
	// backlog a rail could send reaches this many wrappers, the engine
	// runs the optimization function unconditionally and queues the
	// output at the (possibly busy) NIC. 0 disables; the default
	// just-in-time behaviour only elects on NIC-idle events.
	FlushBacklog int `json:"flush_backlog,omitempty"`
	// Credits enables credit-based receive flow control: every gate
	// starts with this many eager landing credits, each eager data
	// wrapper sent consumes one, and the receiver returns credits as it
	// consumes the wrappers (replenishment rides outbound traffic as an
	// aggregable control entry). While a peer's credits are exhausted,
	// data wrappers stay in the window and strategies do not see them —
	// the receive queues (unexpected, resequencing) stay bounded by the
	// budget instead of growing without limit under overload. Both ends
	// of a gate must run with the same setting. 0 disables.
	Credits int `json:"credits,omitempty"`
	// MaxGrants caps the concurrent inbound rendezvous transactions a
	// node grants; further matched rendezvous requests wait with a
	// deferred CTS until an active transaction retires. 0 means
	// unbounded.
	MaxGrants int `json:"max_grants,omitempty"`
	// Reliability turns on the link-layer retransmit machinery for lossy
	// fabrics (simnet.FaultProfile): sequence-checked eager delivery with
	// ack/timeout/retransmit, rendezvous body progress watchdogs, and
	// failed-rail detection with mid-flow re-election of survivors (see
	// core/reliab.go). Every engine of a cluster must agree on this
	// setting — the link framing changes the wire format.
	Reliability bool `json:"reliability,omitempty"`
	// RetransmitTimeout is how long an unacknowledged frame waits before
	// re-injection. 0 means 200µs. Read only under Reliability, as are
	// RetransmitBudget and ProbeBudget.
	RetransmitTimeout sim.Time `json:"retransmit_timeout,omitempty"`
	// RetransmitBudget is how many transmissions one frame may consume on
	// one rail before the rail is declared failed (when a surviving rail
	// exists; the last rail retries forever). 0 means 8.
	RetransmitBudget int `json:"retransmit_budget,omitempty"`
	// ProbeBudget bounds the ping/pong liveness probe of a failed rail:
	// after this many unanswered pings the engine gives the rail up for
	// good and stops probing, so a run over a permanently dead rail
	// terminates on its own instead of rescheduling probe events forever
	// (which forces callers onto RunUntil horizons). A late pong still
	// recovers an abandoned rail if one ever arrives (Stats.AbandonedRails
	// counts the abandoned episodes). 0 means probe forever.
	ProbeBudget int `json:"probe_budget,omitempty"`
}

// RecordingHeader is the first JSONL line: format tag, version and the
// cluster needed to reconstruct the run.
type RecordingHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	// Machine is the recorded cluster, inlined into the header object.
	// Replay re-applies its fault profile (the injector is seeded, so the
	// same faults hit the same packets) unless asked not to.
	simnet.Machine
	// Engines maps node id to the engine personality recorded there.
	Engines map[int]NodeConfig `json:"engines"`
	// Meta carries free-form provenance stamps ("scenario", "seed", ...)
	// set through SetMeta. Minor metadata per the compatibility policy:
	// readers ignore keys they do not know, so adding stamps needs no
	// version bump.
	Meta map[string]string `json:"meta,omitempty"`
}

// Recording accumulates the offered load of a run. Attach one to every
// engine of a cluster (core.Options.Record / nmad.WithRecording); the
// engines register their topology and personalities, and every
// application-level submission appends one Op.
type Recording struct {
	header RecordingHeader
	// ops is the log as the last Ops call flattened it; tail holds the
	// ops recorded since, in chunks that fill in place, so the log never
	// copies itself while it grows (a slice grown by append copies its
	// pointerful ops about five times over by 38 912 ops). n counts both.
	ops  []Op
	tail [][]Op
	n    int
	// segs is the arena RecordOp copies segment lists into: a recorded op
	// holds no slice of its caller's, and the log no object per op.
	segs []int
}

// Chunk sizes of the op log and the segment arena: chunks grow
// geometrically, from a few hundred bytes for a short recording up to the
// largest, which bounds the slack a long one carries.
const (
	minOpChunk, maxOpChunk   = 32, 1024
	minSegChunk, maxSegChunk = 64, 4096
)

// NewRecording returns an empty current-version recording.
func NewRecording() *Recording {
	return &Recording{header: RecordingHeader{
		Format:  recordingFormat,
		Version: RecordingVersion,
		Engines: make(map[int]NodeConfig),
	}}
}

// RegisterFabric records the machine the engines run on. The first
// registration wins — every engine of a cluster attaches the same fabric,
// so later calls are redundant and ignored.
func (r *Recording) RegisterFabric(f *simnet.Fabric) {
	if r == nil || len(r.header.Rails) > 0 {
		return
	}
	r.header.Machine = f.Machine()
}

// SetMeta stamps one provenance key on the recording header (e.g. the
// scenario name and seed a recording was made from). Safe on nil.
func (r *Recording) SetMeta(key, value string) {
	if r == nil {
		return
	}
	if r.header.Meta == nil {
		r.header.Meta = make(map[string]string)
	}
	r.header.Meta[key] = value
}

// Meta reads one provenance stamp ("" when absent). Safe on nil.
func (r *Recording) Meta(key string) string {
	if r == nil {
		return ""
	}
	return r.header.Meta[key]
}

// RegisterEngine records the engine personality of one node.
func (r *Recording) RegisterEngine(node int, cfg NodeConfig) {
	if r == nil {
		return
	}
	if node+1 > r.header.Nodes {
		r.header.Nodes = node + 1
	}
	r.header.Engines[node] = cfg
}

// RecordOp appends one operation. It keeps nothing of op's: the segment
// lengths are copied into the recording's arena, so the caller may reuse
// its slice, or pass one from its stack. Safe to call on a nil recording.
func (r *Recording) RecordOp(op Op) {
	if r == nil {
		return
	}
	r.header.Nodes = max(r.header.Nodes, op.Node+1, op.Peer+1)
	// Built field by field, with the kind taken from the constants:
	// storing op, or its Kind, would let the compiler assume op.Segs is
	// kept too, and move every caller's lengths to the heap.
	var kind string
	switch op.Kind {
	case OpSend:
		kind = OpSend
	case OpRecv:
		kind = OpRecv
	default: // a hand-built op; ReadRecording refuses other kinds
		kind = strings.Clone(op.Kind)
	}
	r.push(Op{
		At: op.At, Node: op.Node, Peer: op.Peer, Kind: kind,
		Tag: op.Tag, Mask: op.Mask, Segs: r.copySegs(op.Segs),
		Priority: op.Priority, Unordered: op.Unordered, Synchronous: op.Synchronous,
		Rail: op.Rail,
	})
}

// copySegs copies a segment list into the arena, nil and empty kept
// apart (they serialize differently).
func (r *Recording) copySegs(segs []int) []int {
	switch {
	case segs == nil:
		return nil
	case len(segs) == 0:
		return []int{}
	}
	if len(segs) > cap(r.segs)-len(r.segs) {
		r.segs = make([]int, 0, max(min(2*cap(r.segs), maxSegChunk), minSegChunk, len(segs)))
	}
	at := len(r.segs)
	r.segs = append(r.segs, segs...)
	return r.segs[at:len(r.segs):len(r.segs)]
}

// push appends one op to the tail, starting a chunk as large as the log
// so far (within bounds) when the last is full.
func (r *Recording) push(op Op) {
	last := len(r.tail) - 1
	if last < 0 || len(r.tail[last]) == cap(r.tail[last]) {
		r.tail = append(r.tail, make([]Op, 0, min(max(r.n, minOpChunk), maxOpChunk)))
		last++
	}
	r.tail[last] = append(r.tail[last], op)
	r.n++
}

// Header returns the recorded topology (a shallow copy; Rails and
// Engines are shared — treat them as read-only).
func (r *Recording) Header() RecordingHeader { return r.header }

// Ops returns the recorded operations in submission order. The first
// call after a RecordOp flattens the log into one slice of exactly its
// length; later calls return that slice as is. The slice and the
// segment lists of its ops, which share the recording's arena, are the
// recording's own — treat them as read-only. Like RecordOp, Ops must not
// run concurrently with another call on the same recording.
func (r *Recording) Ops() []Op {
	if len(r.tail) > 0 {
		flat := make([]Op, 0, r.n)
		flat = append(flat, r.ops...)
		for _, chunk := range r.tail {
			flat = append(flat, chunk...)
		}
		r.ops, r.tail = flat, nil
	}
	return r.ops
}

// Len reports how many operations were recorded.
func (r *Recording) Len() int {
	if r == nil {
		return 0
	}
	return r.n
}

// Write serializes the recording as versioned JSONL: the header line,
// then one line per operation.
func (r *Recording) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(r.header); err != nil {
		return err
	}
	for _, op := range r.Ops() {
		if err := enc.Encode(op); err != nil {
			return err
		}
	}
	return nil
}

// ReadRecording parses a JSONL recording, validating the format tag and
// the version (at most RecordingVersion; see the compatibility policy).
func ReadRecording(rd io.Reader) (*Recording, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("trace: empty recording")
	}
	rec := NewRecording()
	if err := json.Unmarshal(sc.Bytes(), &rec.header); err != nil {
		return nil, fmt.Errorf("trace: bad recording header: %w", err)
	}
	if rec.header.Format != recordingFormat {
		return nil, fmt.Errorf("trace: not a recording (format %q, want %q)", rec.header.Format, recordingFormat)
	}
	if rec.header.Version < 1 || rec.header.Version > RecordingVersion {
		return nil, fmt.Errorf("trace: recording version %d unsupported (this reader handles 1..%d)",
			rec.header.Version, RecordingVersion)
	}
	if rec.header.Engines == nil {
		rec.header.Engines = make(map[int]NodeConfig)
	}
	line := 1
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var op Op
		if err := json.Unmarshal(sc.Bytes(), &op); err != nil {
			return nil, fmt.Errorf("trace: recording line %d: %w", line, err)
		}
		if op.Kind != OpSend && op.Kind != OpRecv {
			return nil, fmt.Errorf("trace: recording line %d: unknown op %q", line, op.Kind)
		}
		rec.push(op) // the decoded Segs are the recording's already
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	rec.Ops() // flattened here, so reading a loaded recording writes nothing
	return rec, nil
}
