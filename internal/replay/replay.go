// Package replay re-drives a recorded offered load (trace.Recording)
// through the engine: each recorded Isend/Irecv/Isendv is re-issued at
// its recorded virtual submission time, on a cluster reconstructed from
// the recorded topology — under the recorded engine personality, or
// under a different strategy or credit budget.
//
// This separates the offered load from the scheduling decisions made on
// it: the same recording replayed under two strategies is an exact A/B
// comparison (identical submission timing, different schedules), and a
// recording replayed twice under the same strategy must produce the
// event-for-event identical timeline — the determinism property every
// scheduler change is regression-tested against.
//
// Replay is open-loop: recorded submission times are honored regardless
// of how the replayed schedule progresses, so a strategy that finishes
// later does not push subsequent submissions back the way a live
// application's blocking calls would. That is the point — the load is
// frozen, only the schedule varies.
//
// # The dispatcher
//
// Replay is event-driven: a node's dispatcher and every op it issues are
// World.At callbacks, never processes. The schedule is the same one a
// process per node spawning a process per op would produce, because
// same-instant events fire in push order and the dispatcher pushes the
// same events from the same places in the same order: one first step per
// node at time zero; from a step, in recorded order, either the step's
// own continuation at the next op's recorded instant or — just in time,
// not pre-scheduled from time zero — that op's issue at the current
// instant, so an op's entry never jumps ahead of engine continuations
// created earlier; from the issue, the post-overhead continuations
// core.Gate.PostSendv pushes where a process would have slept. Ops that
// overlap (a node whose live application submitted from several
// processes at once) therefore charge their overheads concurrently, as
// they did live. What a process would add on top — the wake-up after
// Wait — pushes nothing and only reads the clock at the completion
// instant, which the completion hook reads directly.
//
// Nothing of this is allocated per op. Step and issue are method values
// bound once per node; an issue event finds its op by a cursor, since a
// node's issues at one instant fire in the order step pushed them; every
// op's segment list is a slice of one arena, and its engine request the
// next slot of one send or one receive slab, all three sized by checkOps;
// and one completion hook serves every request, which the run keeps by
// op index — an op whose request is not Done when the queue drains is
// what UndrainedError reports.
package replay

import (
	"fmt"
	"math"
	"strings"

	"nmad/internal/core"
	"nmad/internal/sim"
	"nmad/internal/simnet"
	"nmad/internal/trace"
)

// Config selects what varies between the recording and the replay. The
// zero value replays the recording as recorded.
type Config struct {
	// Strategy, when non-empty, replaces every node's recorded strategy
	// with the named registry strategy.
	Strategy string
	// Credits / MaxGrants, when non-nil, replace the recorded per-node
	// budgets on every node.
	Credits   *int
	MaxGrants *int
	// DisableFaults replays a lossy recording on a lossless fabric: the
	// recorded fault profile in the header is ignored (the engines keep
	// their recorded reliability settings — an idle link layer does not
	// change what is delivered, only its ack/framing overhead). By
	// default the recorded profile is re-applied, and since the injector
	// is seeded, the same faults hit the same packets — a lossy recording
	// replays deterministically, retransmissions included.
	DisableFaults bool
	// Work, when non-nil, receives the replay's host-work counts
	// (sim.World.CountWork).
	Work *sim.Work
}

// Result is one replayed run: the schedule the configured engines
// produced on the recorded load.
type Result struct {
	// Strategy is the strategy name the replay ran under (the recorded
	// one when Config.Strategy was empty and all nodes agreed).
	Strategy string
	// Completion is the virtual time the last re-issued request
	// completed.
	Completion sim.Time
	// Stats are the per-node engine counters.
	Stats []core.Stats
	// Events are the per-node scheduling timelines (one tracer per
	// engine), the material of the determinism checks.
	Events [][]trace.Event
	// RequestErrors counts re-issued requests that completed with an
	// error (e.g. a truncated rendezvous recorded as such).
	RequestErrors int
}

// WireBytes sums the wire footprint every node injected.
func (r *Result) WireBytes() int64 {
	var n int64
	for _, s := range r.Stats {
		n += s.WireBytes
	}
	return n
}

// Packets sums the physical output packets across nodes.
func (r *Result) Packets() int {
	n := 0
	for _, s := range r.Stats {
		n += s.OutputPackets
	}
	return n
}

// Entries sums the wrappers carried by those packets.
func (r *Result) Entries() int {
	n := 0
	for _, s := range r.Stats {
		n += s.EntriesSent
	}
	return n
}

// AggregationRatio is entries per output packet across the whole run.
func (r *Result) AggregationRatio() float64 {
	if p := r.Packets(); p > 0 {
		return float64(r.Entries()) / float64(p)
	}
	return 0
}

// TimelineLines renders every node's event sequence as stable text
// lines, the golden-file form of a replayed schedule.
func (r *Result) TimelineLines() []string {
	var out []string
	for node, evs := range r.Events {
		for _, ev := range evs {
			out = append(out, fmt.Sprintf("node%d | %s", node, ev.String()))
		}
	}
	return out
}

// UndrainedError reports that the event queue drained with re-issued
// requests still in flight — a receive whose send is missing from the
// recording, a synchronous send nobody matches. Nothing can complete them
// any more, so the replay ended without finishing its load.
type UndrainedError struct {
	// At is the virtual time the queue drained.
	At sim.Time
	// Count is how many requests never completed.
	Count int
	// Ops names the first maxUndrainedListed of them in recording order:
	// node, index into Recording.Ops, kind and tag.
	Ops []string
}

// maxUndrainedListed caps UndrainedError.Ops: a missing send early in a
// 1024-node ring strands thousands of ops behind it.
const maxUndrainedListed = 16

func (e *UndrainedError) Error() string {
	more := ""
	if n := e.Count - len(e.Ops); n > 0 {
		more = fmt.Sprintf(" and %d more", n)
	}
	return fmt.Sprintf("replay: queue drained at %v with %d request(s) never completed: %s%s",
		e.At, e.Count, strings.Join(e.Ops, ", "), more)
}

// maxOpBytes is the largest payload the engine can describe: the wire
// header carries the length in 32 bits.
const maxOpBytes int64 = math.MaxUint32

// checkOps validates every recorded op against a topology of nodes
// engines and rails rails before any engine is built — a recording is
// outside input, and Recording.RecordOp checks nothing. It returns each
// node's ops as indexes into ops, in recorded order, the payload size of
// the largest op, the segment count of all of them and how many are
// receives. The lists are windows of one flat index, each sized by a
// counting pass, so a 1024-node ring makes three slices, not one growing
// slice per node.
func checkOps(ops []trace.Op, nodes, rails int) (perNode [][]int, maxBytes, segs, recvs int, err error) {
	starts := make([]int, nodes+1) // first counts node n's ops in starts[n+1]
	for i, op := range ops {
		if op.Node < 0 || op.Node >= nodes || op.Peer < 0 || op.Peer >= nodes {
			return nil, 0, 0, 0, fmt.Errorf("replay: op %d addresses node %d -> %d outside the %d-node topology",
				i, op.Node, op.Peer, nodes)
		}
		if op.Node == op.Peer {
			return nil, 0, 0, 0, fmt.Errorf("replay: op %d is addressed by node %d to itself", i, op.Node)
		}
		switch {
		case op.Kind == trace.OpRecv:
			recvs++
		case op.Kind != trace.OpSend:
			return nil, 0, 0, 0, fmt.Errorf("replay: op %d has unknown kind %q", i, op.Kind)
		case op.Rail < -1 || op.Rail >= rails:
			return nil, 0, 0, 0, fmt.Errorf("replay: op %d pins rail %d outside the %d-rail topology", i, op.Rail, rails)
		}
		total := 0
		for _, n := range op.Segs {
			if n < 0 {
				return nil, 0, 0, 0, fmt.Errorf("replay: op %d has a negative segment length %d", i, n)
			}
			if total += n; total < 0 || int64(total) > maxOpBytes {
				return nil, 0, 0, 0, fmt.Errorf("replay: op %d is larger than the %d bytes a message can carry", i, maxOpBytes)
			}
		}
		maxBytes = max(maxBytes, total)
		segs += len(op.Segs)
		starts[op.Node+1]++
	}
	for n := range nodes {
		starts[n+1] += starts[n]
	}
	flat := make([]int, len(ops))
	perNode = make([][]int, nodes)
	for n := range perNode {
		perNode[n] = flat[starts[n]:starts[n]:starts[n+1]]
	}
	for i, op := range ops {
		perNode[op.Node] = append(perNode[op.Node], i)
	}
	return perNode, maxBytes, segs, recvs, nil
}

// Run replays a recording under the given configuration.
func Run(rec *trace.Recording, cfg Config) (*Result, error) {
	hdr := rec.Header()
	m := hdr.Machine
	if len(m.Rails) == 0 {
		return nil, fmt.Errorf("replay: recording has no rails (was the recording attached before AttachFabric?)")
	}
	if cfg.DisableFaults {
		m.Faults = nil
	}
	// Build checks the node count checkOps sizes its per-node lists by.
	f, err := m.Build()
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	perNode, maxBytes, nSegs, nRecvs, err := checkOps(rec.Ops(), hdr.Nodes, len(m.Rails))
	if err != nil {
		return nil, err
	}
	f.World().CountWork(cfg.Work)

	tracers := make([]*trace.Recorder, hdr.Nodes)
	engines, err := core.NewEngines(f, func(node int) core.Options {
		opts := nodeOptions(hdr, node, cfg)
		tracers[node] = trace.NewRecorder()
		opts.Tracer = tracers[node]
		return opts
	})
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	strategies := map[string]bool{}
	for _, e := range engines {
		strategies[e.StrategyName()] = true
	}

	r := &run{
		w:     f.World(),
		res:   &Result{},
		ops:   rec.Ops(),
		reqs:  make([]core.Request, rec.Len()),
		sends: make([]core.SendRequest, rec.Len()-nRecvs),
		recvs: make([]core.RecvRequest, nRecvs),
		arena: make([][]byte, nSegs),
		// Payload content is not part of a recording — scheduling depends
		// on sizes and layout only — so every send gathers from one zero
		// buffer and every receive lands in one sink nobody reads.
		zero: make([]byte, maxBytes),
		sink: make([]byte, maxBytes),
	}
	r.doneFn = r.complete
	for node, idxs := range perNode {
		if len(idxs) > 0 {
			d := &dispatcher{run: r, eng: engines[node], mine: idxs}
			d.stepFn, d.issueFn = d.step, d.issueNext
			r.w.At(r.w.Now(), d.stepFn)
		}
	}

	if err := r.w.Run(); err != nil {
		return r.res, fmt.Errorf("replay: %w", err)
	}
	res := r.res
	for node := 0; node < hdr.Nodes; node++ {
		res.Stats = append(res.Stats, engines[node].Stats())
		res.Events = append(res.Events, tracers[node].Events())
	}
	switch {
	case cfg.Strategy != "":
		res.Strategy = cfg.Strategy
	case len(strategies) == 1:
		for s := range strategies {
			res.Strategy = s
		}
	default:
		res.Strategy = "mixed"
	}
	return res, r.undrained()
}

// run is the state the callbacks of one Run share.
type run struct {
	w      *sim.World
	res    *Result
	ops    []trace.Op
	reqs   []core.Request     // by op index: the re-issued request, nil until issued
	sends  []core.SendRequest // the send requests no issued op has taken yet
	recvs  []core.RecvRequest // the same for receives
	arena  [][]byte           // the segment slots no issued op has taken yet
	zero   []byte
	sink   []byte
	doneFn func(uint32, error) // complete, bound once: the hook of every request
}

// dispatcher walks one node's ops in recorded order: next is the first
// op step has not scheduled, issued the first one not yet issued.
type dispatcher struct {
	*run
	eng          *core.Engine
	mine         []int // the node's ops, as indexes into run.ops
	next, issued int
	// step and issueNext, bound once: the dispatcher reschedules itself
	// and issues its ops without a closure per op.
	stepFn, issueFn func()
}

// step schedules the issue of every op due at the current instant, then
// reschedules itself for the next one.
func (d *dispatcher) step() {
	for ; d.next < len(d.mine); d.next++ {
		if at := d.ops[d.mine[d.next]].At; at > d.w.Now() {
			d.w.At(at, d.stepFn)
			return
		}
		d.w.At(d.w.Now(), d.issueFn)
	}
}

// issueNext re-posts the oldest op step scheduled and nobody issued yet;
// the engine charges its overheads from here on. Which op an event issues
// needs no record: step pushes a node's issues at one instant in recorded
// order, and same-instant events fire in push order, all before the
// dispatcher's next step.
func (d *dispatcher) issueNext() {
	i := d.mine[d.issued]
	d.issued++
	op := &d.ops[i]
	g := d.eng.Gate(simnet.NodeID(op.Peer))
	if op.Kind == trace.OpRecv {
		req := &d.recvs[0]
		d.recvs, d.reqs[i] = d.recvs[1:], req
		g.PostRecvvMasked(req, core.Tag(op.Tag), core.Tag(op.Mask), d.segsOver(d.sink, op.Segs), d.doneFn)
		return
	}
	sopts := make([]core.SendOption, 0, 4) // stays on the stack
	if op.Priority {
		sopts = append(sopts, core.Priority())
	}
	if op.Unordered {
		sopts = append(sopts, core.Unordered())
	}
	if op.Synchronous {
		sopts = append(sopts, core.Synchronous())
	}
	if op.Rail >= 0 {
		sopts = append(sopts, core.OnRail(op.Rail))
	}
	req := &d.sends[0]
	d.sends, d.reqs[i] = d.sends[1:], req
	g.PostSendv(req, core.Tag(op.Tag), d.segsOver(d.zero, op.Segs), d.doneFn, sopts...)
}

// complete is every re-issued request's completion hook; the request
// itself records which op completed, so the hook's id goes unused.
func (r *run) complete(_ uint32, err error) {
	if err != nil {
		r.res.RequestErrors++
	}
	if now := r.w.Now(); now > r.res.Completion {
		r.res.Completion = now
	}
}

// undrained returns an *UndrainedError naming the ops whose requests
// never completed, nil when all did.
func (r *run) undrained() error {
	e := &UndrainedError{At: r.w.Now()}
	for i, req := range r.reqs {
		if req != nil && req.Done() {
			continue
		}
		if e.Count++; len(e.Ops) < maxUndrainedListed {
			op := r.ops[i]
			e.Ops = append(e.Ops, fmt.Sprintf("node%d op%d %s tag=%#x", op.Node, i, op.Kind, op.Tag))
		}
	}
	if e.Count == 0 {
		return nil
	}
	return e
}

// segsOver cuts an op's segment list from the run's arena — checkOps
// counted a slot for every segment of every op, and each op is issued
// once — and lays the recorded lengths over buf in it.
func (r *run) segsOver(buf []byte, lens []int) [][]byte {
	n := len(lens)
	segs := r.arena[:n:n]
	r.arena = r.arena[n:]
	return slice(segs, buf, lens)
}

// slice lays the recorded segment lengths over buf, which is at least as
// long as their sum, one segment per slot of segs.
func slice(segs [][]byte, buf []byte, lens []int) [][]byte {
	for i, n := range lens {
		segs[i] = buf[:n:n]
		buf = buf[n:]
	}
	return segs
}

// AB replays one recording under several strategies, in order.
func AB(rec *trace.Recording, strategies []string) ([]*Result, error) {
	if len(strategies) == 0 {
		return nil, fmt.Errorf("replay: AB needs at least one strategy")
	}
	out := make([]*Result, 0, len(strategies))
	for _, s := range strategies {
		r, err := Run(rec, Config{Strategy: s})
		if err != nil {
			return out, fmt.Errorf("replay: strategy %s: %w", s, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// nodeOptions rebuilds one node's engine personality from the recording
// header, then applies the replay overrides.
func nodeOptions(hdr trace.RecordingHeader, node int, cfg Config) core.Options {
	opts := core.DefaultOptions()
	if nc, ok := hdr.Engines[node]; ok {
		opts.NodeConfig = nc
	}
	if cfg.Strategy != "" {
		opts.Strategy = cfg.Strategy
	}
	if cfg.Credits != nil {
		opts.Credits = *cfg.Credits
	}
	if cfg.MaxGrants != nil {
		opts.MaxGrants = *cfg.MaxGrants
	}
	return opts
}
