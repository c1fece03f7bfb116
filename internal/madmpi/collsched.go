package madmpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"nmad/internal/core"
	"nmad/internal/sim"
)

// The collective schedule engine. A collective is compiled into a DAG of
// nonblocking steps — sends, receives and local compute (reduction folds,
// packing) — and executed by the calling process: every step whose
// dependencies are satisfied is posted immediately, so multiple rounds
// and segments of one collective are in flight at once and all of the
// traffic flows through the engine's optimization window, where the
// scheduling strategies aggregate and balance it. Each posted request
// reports its completion through a hook onto a FIFO the process drains,
// so a step in flight costs nothing until it finishes. This replaces the
// seed's blocking Sendrecv round-loops, which serialized every round and
// gave the strategy layer nothing to optimize.
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
	peer int
	sub  int // per-(peer, direction) sub-tag, assigned at build time
	buf  []byte
	fn   func()
	deps []int
}

// CollPlan accumulates the step DAG of one collective. Algorithm
// builders (CollAlgo) add steps with Send/Recv/Compute; each returns the
// step id, which later steps name as a dependency. The executor posts a
// step as soon as every dependency has completed, so independent steps —
// different rounds, different segments — overlap freely.
type CollPlan struct {
	steps   []collStep
	sendSub map[int]int
	recvSub map[int]int
	err     error
}

func newCollPlan() *CollPlan {
	return &CollPlan{sendSub: map[int]int{}, recvSub: map[int]int{}}
}

func (pl *CollPlan) fail(err error) int {
	if pl.err == nil {
		pl.err = err
	}
	return len(pl.steps) - 1
}

// realDeps drops negative step ids: a -1 means "no dependency", so
// builders can thread an optional predecessor without branching. The
// input is returned as-is when nothing needs dropping (callers may
// share a deps slice between steps).
func realDeps(deps []int) []int {
	neg := false
	for _, d := range deps {
		if d < 0 {
			neg = true
			break
		}
	}
	if !neg {
		return deps
	}
	keep := make([]int, 0, len(deps))
	for _, d := range deps {
		if d >= 0 {
			keep = append(keep, d)
		}
	}
	return keep
}

// Send schedules a nonblocking send of buf to peer, started once every
// step in deps has completed (negative ids mean "no dependency"). The
// step completes when the engine request does — i.e. when buf may be
// reused. Zero-length buffers become no-op steps (both sides of a pair
// know the length, so the elision is symmetric). Returns the step id.
func (pl *CollPlan) Send(peer int, buf []byte, deps ...int) int {
	if len(buf) == 0 {
		return pl.Compute(nil, deps...)
	}
	sub := pl.sendSub[peer]
	if sub >= collPairSpace {
		return pl.fail(fmt.Errorf("madmpi: collective schedule exceeds %d messages to rank %d", collPairSpace, peer))
	}
	pl.sendSub[peer] = sub + 1
	pl.steps = append(pl.steps, collStep{kind: stepSend, peer: peer, sub: sub, buf: buf, deps: realDeps(deps)})
	return len(pl.steps) - 1
}

// Recv schedules a nonblocking receive into buf from peer. Receives with
// no dependencies are preposted before any send of the schedule leaves.
// Returns the step id.
func (pl *CollPlan) Recv(peer int, buf []byte, deps ...int) int {
	if len(buf) == 0 {
		return pl.Compute(nil, deps...)
	}
	sub := pl.recvSub[peer]
	if sub >= collPairSpace {
		return pl.fail(fmt.Errorf("madmpi: collective schedule exceeds %d messages from rank %d", collPairSpace, peer))
	}
	pl.recvSub[peer] = sub + 1
	pl.steps = append(pl.steps, collStep{kind: stepRecv, peer: peer, sub: sub, buf: buf, deps: realDeps(deps)})
	return len(pl.steps) - 1
}

// Compute schedules a local step (a reduction fold, a pack) run inline
// once deps have completed. fn may be nil for a pure ordering point.
// Returns the step id.
func (pl *CollPlan) Compute(fn func(), deps ...int) int {
	pl.steps = append(pl.steps, collStep{kind: stepCompute, fn: fn, deps: realDeps(deps)})
	return len(pl.steps) - 1
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

// execute runs a compiled schedule to completion on the calling process,
// on the tag lane of collective slot seq. The process posts ready steps
// in step order, paying their submit overheads one after another, each
// on the next request of the run's send or receive slab with a hook that
// queues the step on the run's FIFO as it completes. It finishes steps
// off the FIFO in completion order, posting what each unlocks, and parks
// only when the FIFO is empty: no step in flight is looked at twice.
func (c *Comm) execute(p *sim.Proc, seq uint64, pl *CollPlan) error {
	if pl.err != nil {
		return pl.err
	}
	base, err := c.collTags(seq)
	if err != nil {
		return err
	}
	n := len(pl.steps)
	var kinds [3]int        // steps of each stepKind
	off := make([]int, n+1) // step d's dependents: adj[off[d]:off[d+1]]
	for i, s := range pl.steps {
		if s.kind != stepCompute {
			if err := c.checkPeer(s.peer); err != nil {
				return fmt.Errorf("madmpi: collective schedule step %d: %w", i, err)
			}
		}
		kinds[s.kind]++
		for _, d := range s.deps {
			if d < 0 || d >= i {
				return fmt.Errorf("madmpi: collective schedule step %d has invalid dependency %d", i, d)
			}
			off[d+1]++
		}
	}
	for d := range n {
		off[d+1] += off[d]
	}
	// Each step becomes ready once and each send or receive completes
	// once, so neither the ready queue nor the FIFO outgrows its part.
	edges, io := off[n], kinds[stepSend]+kinds[stepRecv]
	slab := make([]int, 2*n+edges+io)
	indeg, adj, ready := slab[:n], slab[n:n+edges], slab[n+edges:n+edges:2*n+edges]
	x := &collRun{p: p, fifo: slab[2*n+edges : 2*n+edges]}
	for i, s := range pl.steps {
		indeg[i] = len(s.deps)
		for _, d := range s.deps {
			adj[off[d]] = i
			off[d]++
		}
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	copy(off[1:], off) // each off[d] advanced to d's end: shift back
	off[0] = 0
	sends := make([]core.SendRequest, kinds[stepSend])
	recvs := make([]core.RecvRequest, kinds[stepRecv])
	done := 0
	finish := func(i int) {
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
				core.IsendvInto(&sends[0], c.gate(s.peer), p, base+core.Tag(s.sub), [][]byte{s.buf}, x.hook(i))
				sends = sends[1:]
			case stepRecv:
				core.IrecvMaskedInto(&recvs[0], c.gate(s.peer), p, base+core.Tag(s.sub), ^core.Tag(0), s.buf, x.hook(i))
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
			dir := "send to"
			if s.kind == stepRecv {
				dir = "recv from"
			}
			return fmt.Errorf("madmpi: collective %s rank %d: %w", dir, s.peer, x.err)
		}
		head++
		finish(i)
	}
	return nil
}

// collRun is what the hooks of one execute share with its process. It is
// never reused: a step still in flight when execute fails completes into
// storage nothing else reads.
type collRun struct {
	p      *sim.Proc // woken by each completion while execute runs
	fifo   []int     // completed steps, in completion order
	err    error     // the first failure, of the step at fifo[failed]
	failed int
}

// hook returns step i's completion hook.
func (x *collRun) hook(i int) func(error) {
	return func(err error) {
		if err != nil && x.err == nil {
			x.err, x.failed = err, len(x.fifo)
		}
		x.fifo = append(x.fifo, i)
		x.p.Unpark()
	}
}

// runColl is the common tail of every collective entry point: resolve
// the algorithm (pinned or auto-selected from bytes), compile the
// schedule, execute it on the lane of slot seq (consumed by the entry
// point via nextCollSeq before any asymmetric validation). The kind
// doubles as the operation name in error context.
func (c *Comm) runColl(p *sim.Proc, kind CollKind, bytes int, seq uint64, a CollArgs) error {
	algo, err := c.algoFor(kind, bytes)
	if err != nil {
		return fmt.Errorf("madmpi: %s: %w", kind, err)
	}
	pl := newCollPlan()
	if err := algo(pl, a); err != nil {
		return fmt.Errorf("madmpi: %s: %w", kind, err)
	}
	if err := c.execute(p, seq, pl); err != nil {
		return fmt.Errorf("madmpi: %s: %w", kind, err)
	}
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

// binomialParent returns the tree parent of vrank (vrank 0 is the root).
func binomialParent(vrank int) int {
	mask := 1
	for mask <= vrank {
		mask <<= 1
	}
	return vrank - mask>>1
}

// binomialChildren returns the tree children of vrank in a comm of size
// n, in increasing-distance order.
func binomialChildren(vrank, n int) []int {
	mask := 1
	for mask <= vrank {
		mask <<= 1
	}
	var kids []int
	for ; vrank+mask < n; mask <<= 1 {
		kids = append(kids, vrank+mask)
	}
	return kids
}
