package core

import (
	"errors"
	"fmt"

	"nmad/internal/drivers"
	"nmad/internal/sim"
	"nmad/internal/simnet"
	"nmad/internal/trace"
	"nmad/sched"
)

// Options configures an Engine: the recorded personality (every option
// that shapes a schedule, declared once in trace.NodeConfig) plus the
// per-process attachments a recording cannot carry.
type Options struct {
	trace.NodeConfig
	// StrategyImpl, when non-nil, is used directly as the optimization
	// function and takes precedence over Strategy. The value is shared
	// by every engine constructed with it; stateful strategies must
	// synchronize or be registered instead (one instance per engine).
	StrategyImpl sched.Strategy
	// NoRecycle disables the engine's free-list recycling of packet
	// wrappers, output trains, receive entries and wire frames (see
	// pool.go), making every hot-path object a fresh allocation. It exists
	// as the A/B escape hatch for the pooling property test and for leak
	// hunting; the virtual timeline and Stats must be byte-identical
	// either way.
	// The flag is deliberately not part of the recorded NodeConfig — it
	// changes nothing a replay could observe.
	NoRecycle bool
	// Tracer, when non-nil, records every scheduling decision on the
	// virtual timeline (see package trace).
	Tracer *trace.Recorder
	// Record, when non-nil, captures every application-level submission
	// (Isend/Isendv/Irecv/pack pieces) with its virtual-time offset into
	// a replayable recording: the offered load of the run, separated
	// from the schedule produced on it (see trace.Recording and package
	// replay). Attach the same recording to every engine of a cluster.
	Record *trace.Recording
}

// DefaultOptions returns the configuration used throughout the paper's
// evaluation: the aggregation strategy and the measured MAD-MPI software
// overheads.
func DefaultOptions() Options {
	return Options{NodeConfig: trace.NodeConfig{
		Strategy:         "aggreg",
		SubmitOverhead:   150 * sim.Nanosecond,
		ScheduleOverhead: 150 * sim.Nanosecond,
	}}
}

// Engine is one node's NewMadeleine instance: the collect layer, the
// optimizer-scheduler and the bindings to the transfer layer drivers.
type Engine struct {
	world *sim.World
	node  *simnet.Node
	opts  Options
	strat sched.Strategy

	// rails is the transfer layer in attach order: one record per driver
	// holding everything the engine keeps per rail, and the only engine
	// state Attach grows.
	rails []*rail
	// pendingCommon and each rail's pinned count track the engine-wide
	// window population incrementally, so RailInfo.Backlog is O(1) on the
	// NIC-idle hot path instead of a sweep over every gate.
	pendingCommon int

	gates     map[simnet.NodeID]*Gate
	gateOrder []*Gate // deterministic iteration
	rr        int     // round-robin cursor over gates
	electGen  uint64  // election-validation generation (see electOutput)
	creditGen uint64  // credit-window stamp generation (see scanEligible)

	rdvSend   map[uint32]*rdvSend
	rdvRecv   map[rdvKey]*rdvRecv
	rdvWait   []pendingGrant // matched RTSes awaiting a grant slot (Options.MaxGrants)
	nextRdvID uint32

	// posts[postHead:] are the PostSendv / PostRecvvMasked calls waiting
	// out their submit overhead, oldest first; postFn is runPost, bound
	// on the first post (see post).
	posts    []pendingPost
	postHead int
	postFn   func()

	syncAcks   map[uint32]*SendRequest // synchronous sends awaiting the ack
	nextSyncID uint32

	// creditFreeze suspends credit replenishment (FreezeCredits): the
	// receive side keeps tallying consumed wrappers but sends no credit
	// entries, so senders run their budgets dry — the scenario harness's
	// credit-squeeze event.
	creditFreeze bool

	stats Stats

	// Free-list recycling and encode scratch (see pool.go). All
	// per-engine and unsynchronized: the world is single-threaded.
	// frames is the fabric's list, shared with the NICs; nil under
	// Options.NoRecycle, which makes frames no list takes back.
	frames   *simnet.FrameList
	freePkts freeList[packet]
	freeOuts freeList[output]
	freeEnts freeList[inEntry]
	freeDone freeList[recvDone]
	// Rendezvous and link-layer records (rdv.go, reliab.go): each is
	// filed back once nothing pending refers to it any more.
	freeRdvSends freeList[rdvSend]
	freeRdvRecvs freeList[rdvRecv]
	freeChains   freeList[rdmaChain]
	freeLinks    freeList[linkFrame]
	encHdrs      []byte
	// encSegs is the gather-list scratch: an encoded train's (see
	// encodeOutput) or a rendezvous body chunk's (see streamBody), dead
	// once a frame or a wrapper has copied it.
	encSegs [][]byte
	// railScratch backs railInfos() so the per-body-plan rail survey
	// stops allocating (strategies must not retain the slice — the
	// spileak analyzer enforces that). singlePlan backs the single-rail
	// body plan, which streamBody copies before anything can plan again.
	railScratch []sched.RailInfo
	singlePlan  [1]sched.BodyShare
	// oversized is prepare's list of wrappers to convert, dead once
	// prepare returns.
	oversized []*packet
}

// rail is one attached NIC: its driver and the engine's state about it.
type rail struct {
	idx int // position in Engine.rails, the index the SPI and the window lists use
	drv drivers.Driver
	// feeding counts the outputs claiming the rail while their schedule
	// overhead is still being paid; freeAt is when the last claimed
	// overhead window ends, so back-to-back flush elections serialize
	// instead of overlapping.
	feeding int
	freeAt  sim.Time
	staged  *output     // pre-built packet (Options.Anticipate)
	sampler railSampler // achieved-bandwidth estimator
	pinned  int         // window wrappers pinned to this rail, over every gate
	bytes   int64       // payload carried (Stats.PerDriverBytes)
	// Link-layer reliability (Options.Reliability): failure flag,
	// retransmission tally and probe-in-progress latch.
	failed  bool
	retrans int
	probing bool
}

// New creates an engine for one node of a fabric. Drivers must then be
// attached (Attach or AttachFabric) before gates can carry traffic.
func New(f *simnet.Fabric, node simnet.NodeID, opts Options) (*Engine, error) {
	strat := opts.StrategyImpl
	if strat == nil {
		if opts.Strategy == "" {
			opts.Strategy = "aggreg"
		}
		var err error
		if strat, err = sched.New(opts.Strategy); err != nil {
			return nil, err
		}
	}
	if opts.Record != nil && opts.StrategyImpl != nil {
		// The recording stores strategies by registry name; a bare
		// strategy value replay cannot reconstruct would fail (or worse,
		// silently resolve to an unrelated strategy sharing the name) —
		// refuse at record time, where the user can still fix it.
		if _, err := sched.New(strat.Name()); err != nil {
			return nil, fmt.Errorf("core: recording an engine with unregistered strategy %q: replay resolves strategies by registry name — register it with sched.Register", strat.Name())
		}
	}
	if opts.Reliability {
		if opts.RetransmitTimeout <= 0 {
			opts.RetransmitTimeout = defaultRetransmitTimeout
		}
		if opts.RetransmitBudget <= 0 {
			opts.RetransmitBudget = defaultRetransmitBudget
		}
		if opts.BodyChunk <= 0 {
			// An unchunked rendezvous body can monopolize a directed wire
			// for longer than the retransmit timeout, starving the acks
			// queued behind it into spurious retransmissions. Bound the
			// monopolization so link control interleaves between chunks.
			opts.BodyChunk = defaultBodyChunkReliable
		}
	}
	// Recorded after defaulting, under the name the strategy resolved to.
	opts.Strategy = strat.Name()
	opts.Record.RegisterEngine(int(node), opts.NodeConfig)
	w := f.World()
	frames := f.Frames()
	if opts.NoRecycle {
		frames = nil
	}
	return &Engine{
		world:    w,
		node:     f.Node(node),
		opts:     opts,
		strat:    strat,
		frames:   frames,
		gates:    make(map[simnet.NodeID]*Gate),
		rdvSend:  make(map[uint32]*rdvSend),
		rdvRecv:  make(map[rdvKey]*rdvRecv),
		syncAcks: make(map[uint32]*SendRequest),
	}, nil
}

// Attach registers and opens one transfer-layer driver as a new rail.
func (e *Engine) Attach(drv drivers.Driver) error {
	r := &rail{idx: len(e.rails), drv: drv}
	if err := drv.Open(
		func(d simnet.Delivery) { e.onDelivery(r, d) },
		func() { e.pump(r) },
	); err != nil {
		return err
	}
	e.rails = append(e.rails, r)
	for _, g := range e.gateOrder {
		g.win.perDriver = append(g.win.perDriver, nil)
		g.views = append(g.views, windowView{g: g, drv: r.idx})
	}
	if a, ok := e.strat.(sched.Attacher); ok {
		a.OnAttach(e.railInfo(r))
	}
	return nil
}

// AttachFabric attaches one driver per network of the fabric, using the
// port registry.
func (e *Engine) AttachFabric(f *simnet.Fabric) error {
	e.opts.Record.RegisterFabric(f)
	for _, net := range f.Networks() {
		drv, err := drivers.New(net, e.node.ID)
		if err != nil {
			return err
		}
		if err := e.Attach(drv); err != nil {
			return err
		}
	}
	return nil
}

// NewEngines puts one engine on every node of the fabric, attached to
// every rail; opts gives each node's personality.
func NewEngines(f *simnet.Fabric, opts func(node int) Options) ([]*Engine, error) {
	engines := make([]*Engine, f.Nodes())
	for node := range engines {
		e, err := New(f, simnet.NodeID(node), opts(node))
		if err == nil {
			err = e.AttachFabric(f)
		}
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", node, err)
		}
		engines[node] = e
	}
	return engines, nil
}

// Close shuts down every driver.
func (e *Engine) Close() error {
	var first error
	for _, r := range e.rails {
		if err := r.drv.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// World returns the engine's simulation world.
func (e *Engine) World() *sim.World { return e.world }

// NodeID returns the node the engine runs on.
func (e *Engine) NodeID() simnet.NodeID { return e.node.ID }

// Drivers returns the attached rails in attach order.
func (e *Engine) Drivers() []drivers.Driver {
	drvs := make([]drivers.Driver, len(e.rails))
	for i, r := range e.rails {
		drvs[i] = r.drv
	}
	return drvs
}

// StrategyName reports the active optimization strategy.
func (e *Engine) StrategyName() string { return e.strat.Name() }

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.PerDriverBytes = make([]int64, len(e.rails))
	for i, r := range e.rails {
		s.PerDriverBytes[i] = r.bytes
	}
	return s
}

// Gate returns (creating on first use) the connection to a peer node.
func (e *Engine) Gate(peer simnet.NodeID) *Gate {
	if g, ok := e.gates[peer]; ok {
		return g
	}
	g := &Gate{
		eng:     e,
		peer:    peer,
		win:     newWindow(len(e.rails)),
		views:   make([]windowView, len(e.rails)),
		credits: e.opts.Credits,
	}
	for i := range g.views {
		g.views[i] = windowView{g: g, drv: i}
	}
	e.gates[peer] = g
	e.gateOrder = append(e.gateOrder, g)
	return g
}

// chargeSubmit models the host software cost of entering the collect
// layer. When called from a simulated process the process sleeps; from
// engine callbacks the cost is already accounted in ScheduleOverhead.
func (e *Engine) chargeSubmit(p *sim.Proc) {
	if p != nil && e.opts.SubmitOverhead > 0 {
		p.Sleep(e.opts.SubmitOverhead)
	}
}

// chargeCopy models a host memcpy of n bytes on the submitting process
// (the software-gather fallback of the collect layer).
func (e *Engine) chargeCopy(p *sim.Proc, n int) {
	if p != nil && n > 0 {
		p.Sleep(e.node.CopyCost(n))
	}
}

// pendingPost is one Gate.PostSendv or PostRecvvMasked waiting out its
// submit overhead: a send (its request, iovec and configuration) or a
// receive (its request).
type pendingPost struct {
	g    *Gate
	send *SendRequest
	recv *RecvRequest
	iov  iovec
	cfg  sendConfig
}

// post and afterCopy are chargeSubmit and chargeCopy for a caller in
// scheduler context (Gate.PostSendv / PostRecvvMasked): the cost elapses
// before the work runs instead of putting a process to sleep. They push
// an event exactly when their twins would — a zero overhead charges
// nothing and runs the work inline, while a copy cost that rounds to zero
// still yields the instant, as Sleep(0) does.
//
// Every submit-overhead wait of an engine lasts SubmitOverhead, so the
// waits end in the order they began: the posts queue in one FIFO and each
// event runs its head (runPost). postFn is bound on the first post, not in
// New, where it would cost every engine an object whether it posts or not.
func (e *Engine) post(p pendingPost) {
	if e.opts.SubmitOverhead <= 0 {
		e.runPosted(p)
		return
	}
	if e.postFn == nil {
		e.postFn = e.runPost
	}
	e.posts = append(e.posts, p)
	e.world.After(e.opts.SubmitOverhead, e.postFn)
}

// runPost runs the oldest waiting post. It pops the FIFO before running
// it, so a completion hook that posts again queues behind, not in place;
// the dead prefix is compacted away once it outgrows the tail.
func (e *Engine) runPost() {
	p := e.posts[e.postHead]
	e.posts[e.postHead] = pendingPost{}
	if e.postHead++; e.postHead*2 >= len(e.posts) {
		n := copy(e.posts, e.posts[e.postHead:])
		clear(e.posts[n:])
		e.posts, e.postHead = e.posts[:n], 0
	}
	e.runPosted(p)
}

// runPosted is what a post does once its submit overhead is paid: post
// the receive, or submit the send — after the software-gather copy when
// no eligible rail can move its iovec.
func (e *Engine) runPosted(p pendingPost) {
	if p.recv != nil {
		p.g.postRecv(p.recv)
		return
	}
	size := p.send.bytes
	if !e.needsFlatten(p.cfg.driver, 1+p.iov.segCount(), size) {
		p.g.submitSend(p.send, p.iov, p.cfg)
		return
	}
	flat := iovec{p.iov.flatten()}
	e.afterCopy(size, func() { p.g.submitSend(p.send, flat, p.cfg) })
}

func (e *Engine) afterCopy(n int, fn func()) {
	if n > 0 {
		e.world.After(e.node.CopyCost(n), fn)
		return
	}
	fn()
}

// needsFlatten reports whether no rail eligible for a wrapper (its
// pinned rail, or every rail for the common list) can move it without a
// software gather: a rail carries the wrapper when it either gathers
// the segments natively or switches it to rendezvous — the RTS is
// header-only on the wire and the body chunker respects the gather
// capacity.
func (e *Engine) needsFlatten(driver, segs, size int) bool {
	stuck := func(d drivers.Driver) bool {
		c := d.Caps()
		if segs <= c.MaxSegments {
			return false // gatherable as-is
		}
		if c.RdvThreshold > 0 && size >= c.RdvThreshold {
			return false // travels as a rendezvous
		}
		return true
	}
	if driver != anyDriver {
		return stuck(e.rails[driver].drv)
	}
	for _, r := range e.rails {
		if !stuck(r.drv) {
			return false
		}
	}
	return true
}

// traceEvent records one event when tracing is enabled. The Kind-specific
// fields ride in ev; node and time are filled here.
func (e *Engine) traceEvent(kind trace.Kind, peer simnet.NodeID, rail int, tag Tag, bytes, entries int, note string) {
	if e.opts.Tracer == nil {
		return
	}
	e.opts.Tracer.Record(trace.Event{
		At:      e.world.Now(),
		Kind:    kind,
		Node:    int(e.node.ID),
		Peer:    int(peer),
		Rail:    rail,
		Tag:     uint64(tag),
		Bytes:   bytes,
		Entries: entries,
		Note:    note,
	})
}

// recordSend appends one application-level send to the attached
// recording (Options.Record): called at entry, before the submit
// overhead is charged, so replay re-drives the call at the same instant
// and pays the same costs.
func (e *Engine) recordSend(g *Gate, tag Tag, iov iovec, cfg sendConfig) {
	if e.opts.Record == nil {
		return
	}
	e.opts.Record.RecordOp(trace.Op{
		At:          e.world.Now(),
		Node:        int(e.node.ID),
		Peer:        int(g.peer),
		Kind:        trace.OpSend,
		Tag:         uint64(tag),
		Segs:        iov.segLens(),
		Priority:    cfg.flags&flagPriority != 0,
		Unordered:   cfg.flags&flagUnordered != 0,
		Synchronous: cfg.flags&flagNeedAck != 0,
		Rail:        cfg.driver,
	})
}

// recordRecv appends one application-level receive posting to the
// attached recording.
func (e *Engine) recordRecv(g *Gate, req *RecvRequest) {
	if e.opts.Record == nil {
		return
	}
	e.opts.Record.RecordOp(trace.Op{
		At:   e.world.Now(),
		Node: int(e.node.ID),
		Peer: int(g.peer),
		Kind: trace.OpRecv,
		Tag:  uint64(req.want),
		Mask: uint64(req.mask),
		Segs: req.iov.segLens(),
		Rail: anyDriver,
	})
}

// submit inserts a wrapper into the window and kicks the scheduler.
func (e *Engine) submit(pw *packet) {
	pw.gate.win.push(pw)
	if pw.driver == anyDriver {
		e.pendingCommon++
	} else {
		e.rails[pw.driver].pinned++
	}
	if pw.kind == kindData && e.opts.Credits > 0 {
		pw.gate.dataFIFO = append(pw.gate.dataFIFO, pw)
	}
	e.stats.Submitted++
	e.traceEvent(trace.Submit, pw.gate.peer, -1, pw.tag, pw.payloadLen(), 0, pw.kind.String())
	e.kick(pw.gate)
}

// kick offers the (possibly changed) backlog to the scheduler: idle
// rails pump, the flush mode checks the gate's threshold, anticipation
// pre-stages busy rails. Shared by submit and credit replenishment.
func (e *Engine) kick(g *Gate) {
	e.pumpAll()
	if e.opts.FlushBacklog > 0 {
		e.flush(g)
	}
	if e.opts.Anticipate {
		for _, r := range e.rails {
			e.stage(r)
		}
	}
}

// pumpAll offers work to every idle rail.
func (e *Engine) pumpAll() {
	for _, r := range e.rails {
		e.pump(r)
	}
}

// elect asks the strategy for the next output packet for a rail,
// round-robin fair over the gates. It returns nil when nothing is
// electable.
func (e *Engine) elect(r *rail) *output {
	n := len(e.gateOrder)
	for i := 0; i < n; i++ {
		g := e.gateOrder[(e.rr+i)%n]
		if g.win.pending(r.idx) == 0 {
			continue
		}
		e.prepare(g, r)
		if out := e.electOutput(g, r); out != nil {
			e.rr = (e.rr + i + 1) % n
			return out
		}
	}
	return nil
}

// pump is the heart of the optimizer-scheduler layer: called whenever
// rail r might be idle, it hands over the pre-staged packet if
// anticipation built one, or asks the strategy for the next output and
// feeds the rail. The paper's just-in-time property comes from being
// driven by NIC-idle events rather than by the application.
func (e *Engine) pump(r *rail) {
	if r.failed || r.feeding > 0 || !r.drv.Poll() {
		return
	}
	if out := r.staged; out != nil {
		// Anticipation: the packet was built while the rail was busy;
		// submit as soon as its preparation has finished (usually
		// immediately — the election cost hid behind the transmission).
		r.staged = nil
		r.feeding++
		delay := max(out.readyAt-e.world.Now(), 0)
		r.freeAt = max(r.freeAt, e.world.Now()+delay)
		e.world.After(delay, out.onReady)
		return
	}
	if out := e.elect(r); out != nil {
		e.feed(out)
	}
}

// stage pre-elects an output for a busy rail so the next idle event can
// be answered instantly (§3.2's second scheduling mode).
func (e *Engine) stage(r *rail) {
	if !e.opts.Anticipate || r.failed || r.staged != nil || r.feeding > 0 || r.drv.Poll() {
		return
	}
	out := e.elect(r)
	if out == nil {
		return
	}
	e.account(out)
	out.readyAt = e.world.Now() + e.opts.ScheduleOverhead
	r.staged = out
}

// flush force-elects whenever a rail's visible backlog reaches the
// configured threshold, queueing the output at the (possibly busy) NIC
// (§3.2's third scheduling mode).
func (e *Engine) flush(g *Gate) {
	for _, r := range e.rails {
		if r.failed {
			continue
		}
		for g.win.pending(r.idx) >= e.opts.FlushBacklog {
			e.prepare(g, r)
			out := e.electOutput(g, r)
			if out == nil {
				break
			}
			e.feed(out)
		}
	}
}

// prepare converts oversized data wrappers into rendezvous requests, so
// strategies only ever see wrappers that fit the eager protocol (plus
// body chunks, which are exempt). Vector wrappers wider than every
// eligible rail's gather list were already flattened (and the copy
// charged) at submission; a wrapper that merely exceeds THIS rail's
// capacity is left for a wider rail — strategies skip it.
func (e *Engine) prepare(g *Gate, r *rail) {
	threshold := r.drv.Caps().RdvThreshold
	oversized := e.oversized[:0]
	g.win.scan(r.idx, func(pw *packet) bool {
		if pw.kind == kindData && threshold > 0 && pw.payloadLen() >= threshold {
			oversized = append(oversized, pw)
		}
		return true
	})
	for _, pw := range oversized {
		e.convertToRTS(pw)
	}
	e.oversized = oversized
}

// account books the output's statistics and removes its wrappers from the
// window (they are now owned by the output).
func (e *Engine) account(out *output) {
	g := out.gate
	g.win.take(out.entries)
	for _, pw := range out.entries {
		if pw.driver == anyDriver {
			e.pendingCommon--
		} else {
			e.rails[pw.driver].pinned--
		}
		if pw.kind == kindData && e.opts.Credits > 0 {
			g.dropData(pw)
		}
	}
	e.book(out, 1)
	if len(out.entries) > e.stats.MaxEntriesPerPacket {
		e.stats.MaxEntriesPerPacket = len(out.entries)
	}
	e.traceEvent(trace.Elect, g.peer, out.rail.idx, 0, out.wire, len(out.entries), e.strat.Name())
}

// book adds the output to the election counters and spends the landing
// credits of its data wrappers — or, with sign -1, takes both back.
func (e *Engine) book(out *output, sign int) {
	e.stats.OutputPackets += sign
	e.stats.EntriesSent += sign * len(out.entries)
	if len(out.entries) > 1 {
		e.stats.AggregatedPackets += sign
	}
	hasData, hasCtrl := false, false
	for _, pw := range out.entries {
		switch {
		case pw.ctrl():
			hasCtrl = true
		case pw.kind == kindChunk:
			hasData = true // body bytes were counted at startBody time
		default:
			hasData = true
			e.stats.EagerBytes += int64(sign * pw.payloadLen())
		}
		if pw.kind == kindData && e.opts.Credits > 0 {
			out.gate.credits -= sign
		}
	}
	if hasData && hasCtrl {
		e.stats.CtrlPiggybacked += sign
	}
	out.rail.bytes += int64(sign * out.payload)
	e.stats.WireBytes += int64(sign * out.wire)
}

// unstage undoes stage for a rail that failed with a pre-built packet
// waiting: the packet's wrappers left the window when it was elected, so
// they go back to the head of it — on the common list, for whichever
// rail idles next — and the election is taken out of the books.
func (e *Engine) unstage(r *rail) {
	out := r.staged
	if out == nil {
		return
	}
	r.staged = nil
	g := out.gate
	e.book(out, -1)
	var data []*packet
	for _, pw := range out.entries {
		pw.driver = anyDriver
		if pw.kind == kindData && e.opts.Credits > 0 {
			data = append(data, pw)
		}
	}
	e.pendingCommon += len(out.entries)
	g.win.common = append(append([]*packet(nil), out.entries...), g.win.common...)
	g.dataFIFO, g.dataHead = append(data, g.dataWindow()...), 0
	e.freeOutput(out)
}

// feed claims the rail, charges the scheduling overhead, then hands the
// encoded output to the driver. The claim is a counter and overhead
// windows chain through rail.freeAt: when flush elects several outputs
// back-to-back, each pays its full per-packet overhead after the
// previous one, and pump stays out until every claimed output has been
// handed over — outputs are serialized per rail.
func (e *Engine) feed(out *output) {
	e.account(out)
	r := out.rail
	r.feeding++
	now := e.world.Now()
	done := max(now, r.freeAt) + e.opts.ScheduleOverhead
	r.freeAt = done
	if done > now {
		e.world.After(done-now, out.onReady)
	} else {
		out.ready()
	}
}

// ready runs when the output's schedule overhead has been paid: the claim
// on the rail is released and the train goes to the driver.
func (o *output) ready() {
	o.rail.feeding--
	o.gate.eng.send(o)
}

// send hands the output to the driver — through the link layer when
// reliability is on — and pre-stages the next packet if anticipation is
// on. The NIC's completion (output.sent, which recycles the output) is a
// later event, so the output is still this function's after the
// hand-off.
func (e *Engine) send(out *output) {
	if e.opts.Reliability {
		e.linkSend(out)
	} else {
		e.transmit(out)
	}
	e.traceEvent(trace.Depart, out.gate.peer, out.rail.idx, 0, out.payload, len(out.entries), "")
	if e.opts.Anticipate {
		e.stage(out.rail)
	}
}

// transmit flattens the encoded train once into a wire frame and hands
// it to the driver, which takes over the caller's reference; a train the
// link layer framed (out.link) leaves a second reference with its link
// frame, the one every retransmission re-submits.
func (e *Engine) transmit(out *output) {
	segs := e.encodeOutput(out)
	frame := e.frames.New(segs)
	if out.link != nil {
		out.link.frame = frame
		frame.Retain()
	}
	out.sentAt = e.world.Now()
	if err := out.rail.drv.SendFrame(out.gate.peer, simnet.TxEager, frame, len(segs), 0, out.onSent); err != nil {
		panic(fmt.Sprintf("core: strategy %s built an unsendable packet: %v", e.strat.Name(), err))
	}
}

// sent runs when the NIC is done with the train: the sampler and the
// strategy see the transaction, every entry's request is credited, the
// link frame's retransmit timer starts, and the wrappers and the output
// are recycled — this completion is their last reader. The sampler sees
// the wire footprint — entry headers included, notably the per-chunk
// headers of eager rendezvous bodies — because that is what the measured
// duration covers; feeding it payload bytes would bias the
// functional-bandwidth estimate low exactly on the aggregation-heavy
// trains the adaptive strategy watches.
func (o *output) sent() {
	e, g, r := o.gate.eng, o.gate, o.rail
	dur := e.world.Now() - o.sentAt
	r.sampler.observe(o.wire, dur)
	e.notifyComplete(r.idx, g.peer, o.payload, len(o.entries), dur)
	for _, pw := range o.entries {
		if pw.rdv != nil {
			pw.rdv.retire()
		}
		if pw.req != nil && pw.kind != kindRTS {
			pw.req.doneOne()
		}
	}
	for _, pw := range o.entries {
		e.freePacket(pw)
	}
	if o.link != nil {
		o.link.arm()
	}
	e.freeOutput(o)
}

// WindowEmpty reports whether every gate's window has drained (useful for
// quiescence checks in tests).
func (e *Engine) WindowEmpty() bool {
	for _, g := range e.gateOrder {
		if !g.win.empty() {
			return false
		}
	}
	return true
}

// notifyComplete feeds the strategy's optional completion hook: the
// per-transaction functional-characteristics signal of the SPI.
func (e *Engine) notifyComplete(drv int, peer simnet.NodeID, bytes, entries int, dur sim.Time) {
	if c, ok := e.strat.(sched.Completer); ok {
		c.OnComplete(sched.Completion{
			Rail:     drv,
			Peer:     int(peer),
			Bytes:    bytes,
			Entries:  entries,
			Duration: dur,
		})
	}
}

// Entry errors of a send (Gate.sendCheck).
var (
	errNoDrivers = errors.New("core: engine has no attached drivers")
	// ErrBadRail: the submission was pinned (OnRail) to a rail index the
	// engine has no driver for.
	ErrBadRail = errors.New("core: send pinned to a rail that is not attached")
)
