// Package madmpi is MAD-MPI: the paper's "simple, straightforward
// proof-of-concept implementation of a subset of the MPI API" on top of
// the NewMadeleine engine (§3.4). The four point-to-point nonblocking
// posting (Isend, Irecv) and completion (Wait, Test) operations map
// directly onto the equivalent engine operations; completion itself is
// the engine's unified core.Request layer (Request embeds the one
// engine request it posted, the two are one record, and Wait files that
// record back for the next operation, as MPI_Wait frees the request it
// completes); communicators multiplex onto engine flow tags;
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
	eng        *core.Engine
	rank, size int32
	world      *Comm

	nextCommID uint32

	// Collective algorithm configuration: the pipelining segment size
	// (an int32, so it shares a word with nextCommID) and pinned
	// algorithms per kind (empty = automatic selection).
	collSeg   int32
	collForce map[CollKind]string

	// recs holds the records of waited nonblocking operations (see
	// Request.Wait). The first nonblocking operation makes it, so a rank
	// that only makes blocking calls pays nothing for it.
	recs *records
	// runs is the stack of run states collectives filed back (runColl),
	// linked through collRun.next: a slice would outgrow MPI's size class.
	runs *collRun
	// gathers holds the gather lists of typed calls (typed.go), made by
	// the first one.
	gathers *gathers
}

// records is an MPI's two free lists, one per record kind.
type records struct {
	sends recordList[core.SendRequest]
	recvs recordList[core.RecvRequest]
}

// gathers is an MPI's gather lists for typed calls: scratch is the typed
// sends' list, which the engine copies when the send is posted, and free
// holds the lists of waited typed receives (Request.free).
type gathers struct {
	scratch [][]byte
	free    [][][]byte
}

// gatherLists returns m's gather lists, making them on first use.
func (m *MPI) gatherLists() *gathers {
	if m.gathers == nil {
		m.gathers = new(gathers)
	}
	return m.gathers
}

// get pops a waited typed receive's gather list, or returns nil when
// there is none.
func (g *gathers) get() [][]byte {
	n := len(g.free) - 1
	if n < 0 {
		return nil
	}
	l := g.free[n]
	g.free[n] = nil
	g.free = g.free[:n]
	return l
}

// lists returns m's free lists, making them on first use.
func (m *MPI) lists() *records {
	if m.recs == nil {
		m.recs = new(records)
	}
	return m.recs
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
	m := &MPI{eng: eng, rank: int32(node), size: int32(f.Nodes()), nextCommID: 1}
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
func (m *MPI) Rank() int { return int(m.rank) }

// Size returns the number of ranks in COMM_WORLD.
func (m *MPI) Size() int { return int(m.size) }

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
func (c *Comm) Rank() int { return c.mpi.Rank() }

// Size returns the communicator size.
func (c *Comm) Size() int { return c.mpi.Size() }

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
	if peer < 0 || peer >= c.Size() {
		return fmt.Errorf("%w: %d of %d", ErrBadRank, peer, c.Size())
	}
	if peer == c.Rank() {
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
// reimplement completion. A nonblocking send or receive keeps the
// handle and that engine request as one record (sendOp, recvOp), taken
// from the posting MPI's free list.
//
// Wait, WaitStatus and Waitall free the request they complete, as
// MPI_Wait does: the record goes back on its list, and until an
// operation reuses it the handle reads as the null request
// (MPI_REQUEST_NULL) — Done and Test true, Err nil, Wait nil at once,
// Status {-1, -1, 0}. Done, Test, Err, Bytes and Status never free, so a
// handle nobody waits stays its caller's for good.
type Request struct {
	core.Request
	// mpi is the MPI whose list the record goes back to; nil for a
	// handle that is not a live record (a validation failure, or one
	// already freed).
	mpi *MPI
}

// Request is used by core.WaitAll/WaitAny through the unified interface.
var _ core.Request = (*Request)(nil)

// nullRequest is what every freed handle names: an empty, completed
// request group.
var nullRequest core.Request = new(core.RequestGroup)

// sendOp and recvOp are that record: the handle the caller keeps and the
// engine request it names, side by side (88 and 152 bytes, in the 96-
// and 160-byte malloc size classes).
type sendOp struct {
	Request
	s core.SendRequest
}

type recvOp struct {
	Request
	r core.RecvRequest
}

// record is a record on its MPI's free list: the handle and the engine
// request (a core.SendRequest or core.RecvRequest) it named while live.
// A freed handle names the null request, so the list keeps the second
// half.
type record[T any] struct {
	h   *Request
	req *T
}

// recordList is a plain stack of records, like the engine's request lists
// (core's pool.go, reqStack): the deterministic packages keep recycling off
// sync.Pool and GC timing, and a World is single-threaded. get pops one,
// or makes one with fresh when the list is empty and counts the miss.
type recordList[T any] []record[T]

// One miss counter per list: what a run had to make.
var (
	cMissSendOps  = sim.Counter("madmpi.misses.send_ops")
	cMissRecvOps  = sim.Counter("madmpi.misses.recv_ops")
	cMissCollRuns = sim.Counter("madmpi.misses.coll_runs")
)

func (l *recordList[T]) get(w *sim.World, miss sim.CounterID, fresh func() record[T]) record[T] {
	n := len(*l) - 1
	if n < 0 {
		w.Count(miss)
		return fresh()
	}
	rec := (*l)[n]
	(*l)[n] = record[T]{}
	*l = (*l)[:n]
	return rec
}

func (l *recordList[T]) put(rec record[T]) { *l = append(*l, rec) }

// sendRecord returns a live send record of m: its handle, naming the
// zero engine request it returns beside it.
func (m *MPI) sendRecord() (*Request, *core.SendRequest) {
	rec := m.lists().sends.get(m.eng.World(), cMissSendOps, newSendRecord)
	*rec.h = Request{Request: rec.req, mpi: m}
	return rec.h, rec.req
}

func newSendRecord() record[core.SendRequest] {
	op := new(sendOp)
	return record[core.SendRequest]{&op.Request, &op.s}
}

// recvRecord is sendRecord for a receive.
func (m *MPI) recvRecord() (*Request, *core.RecvRequest) {
	rec := m.lists().recvs.get(m.eng.World(), cMissRecvOps, newRecvRecord)
	*rec.h = Request{Request: rec.req, mpi: m}
	return rec.h, rec.req
}

func newRecvRecord() record[core.RecvRequest] {
	op := new(recvOp)
	return record[core.RecvRequest]{&op.Request, &op.r}
}

// free files a completed handle's record back on its MPI's list and
// leaves the handle naming the null request. The engine request is
// zeroed here, so the record drops the caller's buffers; no engine
// record touches a completed request again (core's pool.go), so the
// next operation can post it. A typed receive's gather list goes back on
// the side list, emptied. A handle that is not a live record is left as
// it is.
func (r *Request) free() {
	m := r.mpi
	if m == nil {
		return
	}
	switch req := r.Request.(type) {
	case *core.SendRequest:
		*req = core.SendRequest{}
		m.recs.sends.put(record[core.SendRequest]{r, req})
	case *core.RecvRequest:
		if segs := core.PostedSegs(req); segs != nil {
			clear(segs)
			m.gathers.free = append(m.gathers.free, segs[:0])
		}
		*req = core.RecvRequest{}
		m.recs.recvs.put(record[core.RecvRequest]{r, req})
	}
	*r = Request{Request: nullRequest}
}

// failedRequest wraps an immediate validation error so Wait/Test report
// it. It is never listed, so waiting it frees nothing.
func failedRequest(err error) *Request {
	return &Request{Request: core.FailedRequest(err)}
}

// Status returns the receive status (Source and Tag of -1 and a zero
// Count for sends and for the null request). Valid once the request is
// Done.
func (r *Request) Status() Status {
	if rr, ok := r.Request.(*core.RecvRequest); ok {
		return Status{Source: int(rr.Source()), Tag: userTag(rr.Tag()), Count: rr.N()}
	}
	return Status{Source: -1, Tag: -1}
}

// Wait blocks until the operation completes, returns its error and frees
// the request (MPI_Wait without a status). Waiting the null request
// returns nil at once.
func (r *Request) Wait(p *sim.Proc) error {
	err := r.Request.Wait(p)
	r.free()
	return err
}

// WaitStatus is Wait returning the receive status (Source and Tag of -1
// for pure sends) — the MPI_Wait(&status) form. Like MPI_Wait on
// MPI_ERR_TRUNCATE, the status is populated even when the operation
// completes with an error (the truncated count, the matched source and
// tag); it is read before the request is freed.
func (r *Request) WaitStatus(p *sim.Proc) (Status, error) {
	err := r.Request.Wait(p)
	st := r.Status()
	r.free()
	return st, err
}

// Waitall completes and frees every request in argument order, returning
// the first error (MPI_Waitall). Like MPI_Waitall it sets each slot to
// the null handle, here nil, and skips the nil slots it is handed. A
// caller that needs a receive's status waits that request with
// WaitStatus instead.
func Waitall(p *sim.Proc, reqs ...*Request) error {
	var first error
	for i, r := range reqs {
		if r == nil {
			continue
		}
		if err := r.Wait(p); err != nil && first == nil {
			first = err
		}
		reqs[i] = nil
	}
	return first
}
