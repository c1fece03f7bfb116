// Package madmpi is MAD-MPI: the paper's "simple, straightforward
// proof-of-concept implementation of a subset of the MPI API" on top of
// the NewMadeleine engine (§3.4). The four point-to-point nonblocking
// posting (Isend, Irecv) and completion (Wait, Test) operations map
// directly onto the equivalent engine operations; completion itself is
// the engine's unified core.Request layer (Request embeds the one
// engine request it posted, and a nonblocking operation allocates the
// two as one record); communicators multiplex onto engine flow tags;
// derived datatypes flatten onto the engine's vector (iovec) path, so a
// non-contiguous layout travels as one multi-segment wrapper the
// scheduling strategies aggregate natively (§5.3).
package madmpi

import (
	"errors"
	"fmt"

	"nmad/internal/core"
	"nmad/internal/sim"
	"nmad/internal/simnet"
)

// MPI is one rank's MPI environment. Every node of a job creates its own
// over the shared fabric (ranks are node ids).
type MPI struct {
	eng   *core.Engine
	rank  int
	size  int
	world *Comm

	nextCommID uint32

	// Collective algorithm configuration: pinned algorithms per kind
	// (empty = automatic selection) and the pipelining segment size.
	collForce map[CollKind]string
	collSeg   int
}

// Init creates the MPI environment of one rank. opts selects the engine
// personality — DefaultOptions gives the paper's MAD-MPI configuration.
func Init(f *simnet.Fabric, node simnet.NodeID, opts core.Options) (*MPI, error) {
	eng, err := core.New(f, node, opts)
	if err != nil {
		return nil, err
	}
	if err := eng.AttachFabric(f); err != nil {
		return nil, err
	}
	m := &MPI{eng: eng, rank: int(node), size: f.Nodes(), nextCommID: 1}
	m.world = &Comm{mpi: m, id: m.nextCommID}
	return m, nil
}

// InitAll creates one rank on every node of the fabric, all with the
// same engine personality.
func InitAll(f *simnet.Fabric, opts core.Options) ([]*MPI, error) {
	ranks := make([]*MPI, f.Nodes())
	for node := range ranks {
		m, err := Init(f, simnet.NodeID(node), opts)
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", node, err)
		}
		ranks[node] = m
	}
	return ranks, nil
}

// Rank returns this process's rank in COMM_WORLD.
func (m *MPI) Rank() int { return m.rank }

// Size returns the number of ranks in COMM_WORLD.
func (m *MPI) Size() int { return m.size }

// CommWorld returns the predefined world communicator.
func (m *MPI) CommWorld() *Comm { return m.world }

// Engine exposes the underlying NewMadeleine engine (for stats and
// strategy inspection).
func (m *MPI) Engine() *core.Engine { return m.eng }

// Finalize shuts the engine down.
func (m *MPI) Finalize() error { return m.eng.Close() }

// Errors.
var (
	ErrSelfMessage = errors.New("madmpi: self sends are not supported (design collectives around them)")
	ErrBadRank     = errors.New("madmpi: rank out of range")
)

// AnyTag matches any tag of the communicator (MPI_ANY_TAG).
const AnyTag = -1

// maxUserTag bounds user tags: the communicator id lives in the upper 32
// bits of the engine flow tag.
const maxUserTag = 1<<31 - 1

// Comm is an MPI communicator: an isolated tag space over the same ranks.
// The engine deliberately optimizes *across* communicators — the paper's
// Figure 3 experiment uses one communicator per segment precisely to show
// that the optimization scope is global.
type Comm struct {
	mpi *MPI
	id  uint32
	// collSeq numbers this communicator's collectives; ranks agree on it
	// because collectives are called in the same order everywhere. It
	// feeds the epoch-extended collective tag lane (see collsched.go).
	collSeq uint64
}

// Dup returns a new communicator with an isolated tag space. Like the
// real MPI_Comm_dup it must be called collectively in the same order on
// every rank so ids agree.
func (c *Comm) Dup() *Comm {
	c.mpi.nextCommID++
	return &Comm{mpi: c.mpi, id: c.mpi.nextCommID}
}

// Rank returns the caller's rank.
func (c *Comm) Rank() int { return c.mpi.rank }

// Size returns the communicator size.
func (c *Comm) Size() int { return c.mpi.size }

// ID returns the communicator's numeric id (diagnostics).
func (c *Comm) ID() uint32 { return c.id }

// flowTag folds (communicator, user tag) into an engine flow tag.
func (c *Comm) flowTag(tag int) core.Tag {
	return core.Tag(c.id)<<32 | core.Tag(uint32(tag))
}

// tagSpace returns the (want, mask) pair matching the whole communicator
// (for AnyTag receives).
func (c *Comm) tagSpace() (core.Tag, core.Tag) {
	return core.Tag(c.id) << 32, core.Tag(0xFFFFFFFF) << 32
}

// userTag recovers the user tag from a matched engine flow tag.
func userTag(flow core.Tag) int { return int(uint32(flow)) }

// checkPeer validates a peer rank.
func (c *Comm) checkPeer(peer int) error {
	if peer < 0 || peer >= c.mpi.size {
		return fmt.Errorf("%w: %d of %d", ErrBadRank, peer, c.mpi.size)
	}
	if peer == c.mpi.rank {
		return ErrSelfMessage
	}
	return nil
}

// checkTag validates a user tag for sending.
func checkTag(tag int) error {
	if tag < 0 || tag > maxUserTag {
		return fmt.Errorf("madmpi: tag %d out of range [0, %d]", tag, maxUserTag)
	}
	return nil
}

// gate resolves the engine gate for a peer rank.
func (c *Comm) gate(peer int) *core.Gate {
	return c.mpi.eng.Gate(simnet.NodeID(peer))
}

// Status describes a completed receive, like MPI_Status.
type Status struct {
	Source int
	Tag    int
	Count  int
}

// Request is a nonblocking operation handle: the one engine request
// the operation posted (every MPI operation, typed ones included, is a
// single wrapper below), so it satisfies the engine's unified
// core.Request interface by embedding it — the MPI layer does not
// reimplement completion. A nonblocking send or receive allocates the
// handle and that engine request as one record (sendOp, recvOp), so an
// MPI operation costs the engine's single allocation and no more.
type Request struct {
	core.Request
}

// Request is used by core.WaitAll/WaitAny through the unified interface.
var _ core.Request = (*Request)(nil)

// sendOp and recvOp are that record: the handle the caller keeps and the
// engine request it names, side by side (80 and 160 bytes, each filling
// its malloc size class).
type sendOp struct {
	Request
	s core.SendRequest
}

type recvOp struct {
	Request
	r core.RecvRequest
}

// newRecvOp returns a receive record whose handle names its request.
func newRecvOp() *recvOp {
	op := new(recvOp)
	op.Request.Request = &op.r
	return op
}

// failedRequest wraps an immediate validation error so Wait/Test report
// it.
func failedRequest(err error) *Request {
	return &Request{Request: core.FailedRequest(err)}
}

// Status returns the receive status (Source and Tag of -1 and a zero
// Count for sends). Valid once the request is Done.
func (r *Request) Status() Status {
	if rr, ok := r.Request.(*core.RecvRequest); ok {
		return recvStatus(rr)
	}
	return Status{Source: -1, Tag: -1}
}

// recvStatus is the MPI_Status of an engine receive.
func recvStatus(r *core.RecvRequest) Status {
	return Status{Source: int(r.Source()), Tag: userTag(r.Tag()), Count: r.N()}
}

// WaitStatus blocks until completion and returns the receive status
// (zero for pure sends) — the MPI_Wait(&status) form; Wait (from the
// unified request interface) is the status-less form. Like MPI_Wait on
// MPI_ERR_TRUNCATE, the status is populated even when the operation
// completes with an error (the truncated count, the matched source and
// tag).
func (r *Request) WaitStatus(p *sim.Proc) (Status, error) {
	err := r.Wait(p)
	return r.Status(), err
}

// Waitall completes every request in argument order, returning the first
// error (MPI_Waitall).
func Waitall(p *sim.Proc, reqs ...*Request) error {
	var first error
	for _, r := range reqs {
		if err := r.Wait(p); err != nil && first == nil {
			first = err
		}
	}
	return first
}
