package madmpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"nmad/internal/core"
	"nmad/internal/sim"
)

// The collective schedule engine. A collective is compiled into a DAG of
// nonblocking steps — sends, receives and local compute (reduction folds,
// packing) — and executed by the calling process: every step whose
// dependencies are satisfied is posted immediately, so multiple rounds
// and segments of one collective are in flight at once and all of the
// traffic flows through the engine's optimization window, where the
// scheduling strategies aggregate and balance it. Every posted request
// carries its step's index and reports to the one completion hook of the
// run, which queues the step on a FIFO the process drains, so a step in
// flight costs nothing until it finishes. This replaces the seed's
// blocking Sendrecv round-loops, which serialized every round and gave
// the strategy layer nothing to optimize.
//
// A run's state (collRun) — the plan in flat arenas, the DAG and the
// request slabs — comes from its MPI's free list and goes back when the
// run succeeds, so the executor makes no object per step, and none per
// call once warm (LibNBC's reused schedules: Hoefler, Lumsdaine and Rehm,
// SC 2007); what a builder allocates, such as fold buffers, is its own.
//
// # Tag space
//
// Collective traffic travels on a dedicated flow-tag lane, disjoint from
// user point-to-point tags and from AnyTag matching: the lane occupies
// the upper 32 bits of the engine flow tag with the high bit set (user
// communicators are small dense ids and never reach it). Within one
// collective, every message between an ordered rank pair gets its own
// sub-tag, assigned at schedule build time — both ranks construct their
// sides of the schedule with the same loops, so the k-th message from A
// to B carries the same tag on both sides and matching is exact no
// matter in which order completions allow steps to be posted.
//
// The 32-bit tag word folds (sequence window, pair sub-tag); the lane
// word folds (epoch, communicator). When the per-epoch sequence window
// wraps, the epoch advances and the whole lane moves — tags are never
// silently reused. Only after collMaxEpoch epochs (2^29 collectives on
// one communicator) does the space genuinely end, and that is detected
// and reported as ErrCollTags instead of wrapping.
//
// A fresh tag leaves no state behind. Each step's tag carries that one
// message, so the executor sends it one-shot (core.IsendvOnceInto):
// neither gate keeps a flow entry for the tag. The gate's one-shot lane
// still drops a duplicated step, as an ordered flow drops a duplicate.

// Typed collective errors.
var (
	// ErrCollBuffer reports a collective buffer whose length does not
	// match what the operation requires (e.g. Gather's recvBuf must be
	// exactly Size×len(sendBuf) bytes).
	ErrCollBuffer = errors.New("madmpi: collective buffer length mismatch")
	// ErrCollTags reports an exhausted collective tag space: the
	// communicator has run 2^29 collectives. Dup a fresh communicator to
	// continue.
	ErrCollTags = errors.New("madmpi: collective tag space exhausted")
	// ErrCollAlgo reports an unknown collective algorithm name.
	ErrCollAlgo = errors.New("madmpi: unknown collective algorithm")
)

// Collective tag-space layout.
const (
	// collPairSpace bounds the distinct messages between one ordered
	// rank pair within a single collective; schedule builders clamp
	// their segment counts to it.
	collPairSpace = 1 << 10
	// collSeqWindow is how many collectives fit in one tag epoch.
	collSeqWindow = 1 << 22
	// collMaxEpoch bounds the epochs encodable in the lane word.
	collMaxEpoch = 1 << 7
	// collLaneBit marks the collective lane in the upper flow-tag word.
	collLaneBit = uint32(1) << 31
	// collCommMask is the communicator-id field of the lane word.
	collCommMask = uint32(1)<<24 - 1
)

type stepKind uint8

const (
	stepSend stepKind = iota
	stepRecv
	stepCompute
)

// collStep is one node of the schedule DAG.
type collStep struct {
	kind stepKind
	sub  uint16 // per-(peer, direction) sub-tag, assigned at build time
	peer int32
	buf  []byte
	fn   func()
}

// CollPlan accumulates the step DAG of one collective. Algorithm
// builders (CollAlgo) add steps with Send/Recv/Compute; each returns the
// step id, which later steps name as a dependency. The executor posts a
// step as soon as every dependency has completed, so independent steps —
// different rounds, different segments — overlap freely.
type CollPlan struct {
	c     *Comm // whose ranks the steps name
	steps []collStep
	deps  [][2]uint32 // (step, dependency) edges, in step order
	subs  [][2]uint16 // per peer, the next sub-tag of each direction (by stepKind)
	kinds [3]int      // steps of each stepKind
	err   error
	token [1]byte // what a barrier round sends and receives
}

// reset empties pl for a collective on c, keeping its storage.
func (pl *CollPlan) reset(c *Comm) {
	pl.c, pl.steps, pl.deps, pl.kinds, pl.err = c, pl.steps[:0], pl.deps[:0], [3]int{}, nil
	pl.subs = grown(pl.subs, c.Size())
	clear(pl.subs)
}

// grown returns s resliced to n elements, or n zero elements made anew
// when s is too short to hold them.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (pl *CollPlan) fail(err error) int {
	if pl.err == nil {
		pl.err = err
	}
	return len(pl.steps) - 1
}

// reserve makes room for steps more steps and edges more dependency
// edges: a builder that knows its counts up front makes each arena once
// on a cold run state, instead of growing it by append.
func (pl *CollPlan) reserve(steps, edges int) {
	pl.steps = slices.Grow(pl.steps, steps)
	pl.deps = slices.Grow(pl.deps, edges)
}

// add appends s with its dependencies and returns its id. A negative id
// means "no dependency" and is dropped, so builders can thread an
// optional predecessor without branching.
func (pl *CollPlan) add(s collStep, deps []int) int {
	i := len(pl.steps)
	for _, d := range deps {
		if d >= i {
			return pl.fail(fmt.Errorf("madmpi: collective schedule step %d has invalid dependency %d", i, d))
		}
		if d >= 0 {
			pl.deps = append(pl.deps, [2]uint32{uint32(i), uint32(d)})
		}
	}
	pl.steps = append(pl.steps, s)
	pl.kinds[s.kind]++
	return i
}

// Send schedules a nonblocking send of buf to peer, started once every
// step in deps has completed (negative ids mean "no dependency"). The
// step completes when the engine request does — i.e. when buf may be
// reused. Zero-length buffers become no-op steps (both sides of a pair
// know the length, so the elision is symmetric). Returns the step id.
func (pl *CollPlan) Send(peer int, buf []byte, deps ...int) int {
	return pl.message(stepSend, peer, buf, deps)
}

// Recv schedules a nonblocking receive into buf from peer. Receives with
// no dependencies are preposted before any send of the schedule leaves.
// Returns the step id.
func (pl *CollPlan) Recv(peer int, buf []byte, deps ...int) int {
	return pl.message(stepRecv, peer, buf, deps)
}

// message adds a send or receive step, numbered among the messages of
// its direction with peer.
func (pl *CollPlan) message(kind stepKind, peer int, buf []byte, deps []int) int {
	if len(buf) == 0 {
		return pl.Compute(nil, deps...)
	}
	if err := pl.c.checkPeer(peer); err != nil {
		return pl.fail(fmt.Errorf("madmpi: collective schedule step %d: %w", len(pl.steps), err))
	}
	sub := pl.subs[peer][kind]
	if sub >= collPairSpace {
		return pl.fail(fmt.Errorf("madmpi: collective schedule exceeds %d messages %s rank %d", collPairSpace, [...]string{"to", "from"}[kind], peer))
	}
	pl.subs[peer][kind]++
	return pl.add(collStep{kind: kind, peer: int32(peer), sub: sub, buf: buf}, deps)
}

// Compute schedules a local step (a reduction fold, a pack) run inline
// once deps have completed. fn may be nil for a pure ordering point.
// Returns the step id.
func (pl *CollPlan) Compute(fn func(), deps ...int) int {
	return pl.add(collStep{kind: stepCompute, fn: fn}, deps)
}

// nextCollSeq consumes the next collective slot. Entry points call it
// before any rank-asymmetric validation (a root-side buffer check only
// the root can fail), so every rank advances the sequence for every
// collective call and the tag lanes stay in lockstep even when one
// rank rejects its arguments — the invariant the seed kept by minting
// the tag before validating.
func (c *Comm) nextCollSeq() uint64 {
	seq := c.collSeq
	c.collSeq++
	return seq
}

// collTags mints the flow-tag lane of collective slot seq on this
// communicator: the base tag a step's pair sub-tag is added to. Because
// collectives are called in the same order on every rank (the MPI
// contract), ranks agree on the sequence number, the epoch and therefore
// the lane.
func (c *Comm) collTags(seq uint64) (core.Tag, error) {
	epoch := seq / collSeqWindow
	if epoch >= collMaxEpoch {
		return 0, fmt.Errorf("%w: %d collectives on communicator %d", ErrCollTags, seq, c.id)
	}
	if c.id&^collCommMask != 0 {
		return 0, fmt.Errorf("madmpi: communicator id %d overflows the collective lane", c.id)
	}
	lane := collLaneBit | uint32(epoch)<<24 | c.id
	base := uint32(seq%collSeqWindow) * collPairSpace
	return core.Tag(lane)<<32 | core.Tag(base), nil
}

// execute runs x's compiled schedule to completion on the calling
// process, on the tag lane of collective slot seq. The process posts
// ready steps in step order, paying their submit overheads one after
// another, each on the next request of x's send or receive slab, numbered
// with its step and reporting to x's hook, which queues the step on x's
// FIFO as it completes. It finishes steps off the FIFO in completion
// order, posting what each unlocks, and parks only when the FIFO is
// empty: no step in flight is looked at twice.
func (c *Comm) execute(p *sim.Proc, seq uint64, x *collRun) error {
	pl := &x.pl
	if pl.err != nil {
		return pl.err
	}
	base, err := c.collTags(seq)
	if err != nil {
		return err
	}
	// Each step becomes ready once and each send or receive completes
	// once, so neither the ready queue nor the FIFO outgrows its part.
	n, edges, io := len(pl.steps), len(pl.deps), pl.kinds[stepSend]+pl.kinds[stepRecv]
	x.slab = grown(x.slab, 3*n+1+edges+io)
	indeg, off, adj := x.slab[:n], x.slab[n:2*n+1], x.slab[2*n+1:2*n+1+edges]
	ready, fifo := x.slab[2*n+1+edges:2*n+1+edges:3*n+1+edges], x.slab[3*n+1+edges:3*n+1+edges]
	clear(x.slab[:2*n+1])
	for _, e := range pl.deps {
		indeg[e[0]]++
		off[e[1]+1]++
	}
	for d := range n {
		off[d+1] += off[d]
	}
	for _, e := range pl.deps { // step d's dependents: adj[off[d]:off[d+1]]
		adj[off[e[1]]] = e[0]
		off[e[1]]++
	}
	copy(off[1:], off) // each off[d] advanced to d's end: shift back
	off[0] = 0
	for i := range uint32(n) {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	x.sends, x.recvs = grown(x.sends, pl.kinds[stepSend]), grown(x.recvs, pl.kinds[stepRecv])
	sends, recvs := x.sends, x.recvs
	x.p, x.fifo, x.err = p, fifo, nil
	done := 0
	finish := func(i uint32) {
		done++
		for _, j := range adj[off[i]:off[i+1]] {
			if indeg[j]--; indeg[j] == 0 {
				ready = append(ready, j)
			}
		}
	}
	for next, head := 0, 0; done < n; {
		for ; next < len(ready); next++ {
			i := ready[next]
			s := &pl.steps[i]
			switch s.kind {
			case stepCompute:
				if s.fn != nil {
					s.fn()
				}
				finish(i)
			case stepSend:
				core.IsendvOnceInto(&sends[0], c.gate(int(s.peer)), p, base+core.Tag(s.sub), [][]byte{s.buf}, i, x.hookFn)
				sends = sends[1:]
			case stepRecv:
				core.IrecvMaskedInto(&recvs[0], c.gate(int(s.peer)), p, base+core.Tag(s.sub), ^core.Tag(0), s.buf, i, x.hookFn)
				recvs = recvs[1:]
			}
		}
		if done == n {
			break
		}
		if head == len(x.fifo) {
			p.Park()
			continue
		}
		i := x.fifo[head]
		if x.err != nil && head == x.failed {
			x.p = nil // steps still in flight complete into x, waking nobody
			s := pl.steps[i]
			return fmt.Errorf("madmpi: collective %s rank %d: %w", [...]string{"send to", "recv from"}[s.kind], s.peer, x.err)
		}
		head++
		finish(i)
	}
	return nil
}

// collRun is one collective run's state: its plan, execute's DAG slab
// (in-degrees, dependents, ready queue, FIFO), its request slabs and what
// their one hook shares with the process. Each run takes its own from its
// MPI's free list and files it back only on success: a step in flight
// when execute fails completes into storage nothing reads again.
type collRun struct {
	pl     CollPlan
	slab   []uint32
	sends  []core.SendRequest
	recvs  []core.RecvRequest
	next   *collRun            // the next state on its MPI's free list
	hookFn func(uint32, error) // hook, bound once per state
	p      *sim.Proc           // woken by each completion while execute runs
	fifo   []uint32            // completed steps, in completion order
	err    error               // the first failure, of the step at fifo[failed]
	failed int
}

// hook is every request's completion hook: id is the request's step.
func (x *collRun) hook(id uint32, err error) {
	if err != nil && x.err == nil {
		x.err, x.failed = err, len(x.fifo)
	}
	x.fifo = append(x.fifo, id)
	x.p.Unpark()
}

// runColl is the common tail of every collective entry point: resolve
// the algorithm (pinned or auto-selected from bytes), compile the
// schedule into a run state, execute it on the lane of slot seq
// (consumed by the entry point via nextCollSeq before any asymmetric
// validation), and file the state back, without the caller's buffers
// and with zero requests. The kind names the operation in errors.
func (c *Comm) runColl(p *sim.Proc, kind CollKind, bytes int, seq uint64, a CollArgs) error {
	algo, err := c.algoFor(kind, bytes)
	if err != nil {
		return fmt.Errorf("madmpi: %s: %w", kind, err)
	}
	m := c.mpi
	x := m.runs
	if x == nil {
		m.eng.World().Count(cMissCollRuns)
		x = new(collRun)
		x.hookFn = x.hook
	}
	m.runs, x.next = x.next, nil
	x.pl.reset(c)
	if err := algo(&x.pl, a); err != nil {
		return fmt.Errorf("madmpi: %s: %w", kind, err)
	}
	if err := c.execute(p, seq, x); err != nil {
		return fmt.Errorf("madmpi: %s: %w", kind, err)
	}
	clear(x.pl.steps)
	clear(x.sends)
	clear(x.recvs)
	x.p, x.next, m.runs = nil, m.runs, x
	return nil
}

// segSpans splits [start, start+length) into at most maxSegs spans of
// roughly segBytes each, aligned to align (8 for float64 payloads so a
// fold never splits an element). Schedule builders use it to bound their
// per-pair message counts to the sub-tag budget.
func segSpans(start, length, segBytes, align, maxSegs int) [][2]int {
	if length <= 0 {
		return nil
	}
	if align < 1 {
		align = 1
	}
	if segBytes < align {
		segBytes = align
	}
	nsegs := (length + segBytes - 1) / segBytes
	if maxSegs > 0 && nsegs > maxSegs {
		nsegs = maxSegs
	}
	size := (length + nsegs - 1) / nsegs
	size = (size + align - 1) / align * align
	var out [][2]int
	for off := 0; off < length; off += size {
		l := size
		if off+l > length {
			l = length - off
		}
		out = append(out, [2]int{start + off, l})
	}
	return out
}

// foldF64 applies op element-wise over the float64 vectors packed in dst
// and src, accumulating into dst (dst[i] = op(dst[i], src[i])).
func foldF64(dst, src []byte, op Op) {
	n := len(dst)
	if len(src) < n {
		n = len(src)
	}
	for i := 0; i+8 <= n; i += 8 {
		a := math.Float64frombits(binary.LittleEndian.Uint64(dst[i:]))
		b := math.Float64frombits(binary.LittleEndian.Uint64(src[i:]))
		binary.LittleEndian.PutUint64(dst[i:], math.Float64bits(op(a, b)))
	}
}

// binomialMask returns the distance from vrank to its first binomial
// tree child (vrank 0 is the root): its children are vrank+mask for mask,
// 2·mask, ... up to the communicator size, in increasing-distance order,
// and its parent is vrank-mask/2.
func binomialMask(vrank int) int {
	mask := 1
	for mask <= vrank {
		mask <<= 1
	}
	return mask
}
