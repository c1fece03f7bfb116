package core

import (
	"errors"

	"nmad/internal/sim"
	"nmad/internal/simnet"
)

// Request errors.
var (
	ErrTruncated  = errors.New("core: message longer than the receive buffer")
	ErrNoRequests = errors.New("core: WaitAny with no requests")
)

// Request is the unified completion handle of the engine: every
// nonblocking operation — a send, a receive, a packed message, a group of
// them, a handle layered above (MAD-MPI requests) — presents the same
// isend/irecv/wait/test surface of the paper's API set.
//
// The interface is sealed: a request records the process waiting on it
// and wakes that process itself when it completes, so outside
// implementations cannot exist. Compose operations with RequestGroup, or
// embed the Request a layer above wraps, instead.
type Request interface {
	// Done reports whether the request has completed.
	Done() bool
	// Test is the non-blocking completion probe: like Done it reports
	// completion without ever blocking.
	Test() bool
	// Err returns the completion error: nil while in flight or on
	// success.
	Err() error
	// Wait blocks the process until the request completes and returns
	// the completion error. Waiting on an already-completed request
	// returns the stored error immediately. One process waits on a
	// handle at a time (MPI's rule): a later waiter replaces an earlier.
	Wait(p *sim.Proc) error
	// Bytes is the payload size the request moved: the submitted bytes
	// of a send, the received bytes of a completed receive.
	Bytes() int

	// watch makes p the process the request unparks when it completes
	// (when any member does, for a group). It seals the interface and is
	// how WaitAny blocks on several requests at once.
	watch(p *sim.Proc)
}

// WaitAll blocks until every request has completed and returns the first
// error encountered, in argument order.
func WaitAll(p *sim.Proc, reqs ...Request) error {
	var first error
	for _, r := range reqs {
		if err := r.Wait(p); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// WaitAny blocks until at least one request has completed and returns its
// index and completion error. Already-completed requests are returned
// immediately (lowest index first). The completion of any request it
// scanned, on whichever engine, wakes the process to scan again. Requests
// still pending when WaitAny returns keep p as their watcher: a late
// completion unparks p wherever it is by then, which the contract of
// sim.Proc.Park makes harmless.
func WaitAny(p *sim.Proc, reqs ...Request) (int, error) {
	if len(reqs) == 0 {
		return -1, ErrNoRequests
	}
	for {
		for i, r := range reqs {
			if r.Test() {
				return i, r.Err()
			}
			r.watch(p)
		}
		p.Park()
	}
}

// request is the completion state shared by send and receive requests.
// It knows the one process waiting on it and unparks that process when
// it completes; engine callbacks never block.
type request struct {
	// waiter is the process to unpark at completion: the one in Wait, or
	// the last one whose WaitAny scanned the request.
	waiter *sim.Proc
	done   bool
	// id is what the request's poster numbered it (IsendvInto,
	// IrecvvMaskedInto; 0 otherwise), handed back to hook. It sits in
	// the padding after done.
	id  uint32
	err error
	// hook, when set, is called once with id and the completion error at
	// the instant the request completes: how a submission from scheduler
	// context (Gate.PostSendv / PostRecvvMasked), which has no process to
	// Wait with, learns of completion, and how a process with many
	// requests in flight learns which one finished without scanning them
	// or binding a closure per request. waiter and hook are one word each
	// on purpose: together they fill SendRequest's and RecvRequest's
	// malloc size classes (see TestRequestSizeClasses).
	hook func(id uint32, err error)
}

// Done reports whether the request has completed.
func (r *request) Done() bool { return r.done }

// Err returns the completion error, nil while in flight or on success.
func (r *request) Err() error { return r.err }

// Test is the non-blocking completion probe of the paper's API set
// (isend/irecv/wait/test): it reports completion without blocking.
func (r *request) Test() bool { return r.done }

// Wait blocks the process until the request completes and returns the
// completion error.
func (r *request) Wait(p *sim.Proc) error {
	for !r.done {
		r.waiter = p
		p.Park()
	}
	return r.err
}

// watch stores only on change: WaitAny scans thousands of pending
// requests on every pass and must not dirty each one to re-watch it.
func (r *request) watch(p *sim.Proc) {
	if r.waiter != p {
		r.waiter = p
	}
}

// complete finalizes the request, wakes the process waiting on it and
// calls the hook.
func (r *request) complete(err error) {
	if r.done {
		return
	}
	r.done = true
	r.err = err
	r.waiter.Unpark()
	if r.hook != nil {
		r.hook(r.id, err)
	}
}

// truncErr is a receive's completion error: ErrTruncated if some bytes
// did not fit its buffer.
func truncErr(short bool) error {
	if short {
		return ErrTruncated
	}
	return nil
}

// SendRequest tracks one submitted message (one wrapper for Isend;
// several for a packed message). It completes when the NIC has finished
// with every wrapper — for rendezvous sends, when the whole body has
// streamed out, and under Options.Reliability when the receiver's
// kindDone reports it landed, so a reissue still reads the caller's
// memory.
type SendRequest struct {
	request
	tag     Tag
	bytes   int
	pending int // wrappers (or body chunks) still in flight
}

// Tag returns the flow tag of the send.
func (r *SendRequest) Tag() Tag { return r.tag }

// Bytes returns the total payload size of the send.
func (r *SendRequest) Bytes() int { return r.bytes }

// add registers n more in-flight units on the request.
func (r *SendRequest) add(n int) { r.pending += n }

// doneOne retires one in-flight unit, completing the request at zero.
func (r *SendRequest) doneOne() {
	r.pending--
	if r.pending == 0 {
		r.complete(nil)
	}
	if r.pending < 0 {
		panic("core: send request over-completed")
	}
}

// RecvRequest is a posted receive. It matches incoming wrappers by
// tag&mask == want&mask, in arrival order, FIFO against other posted
// receives of the same gate. The landing area is an iovec: Irecvv
// scatters into the caller's many segments, Irecv into the single
// segment the request itself holds (one; iov is then one[:]).
type RecvRequest struct {
	request
	want Tag
	mask Tag
	iov  iovec
	one  [1][]byte

	n   int
	tag Tag
	src simnet.NodeID
}

// N returns the received payload size (valid once Done).
func (r *RecvRequest) N() int { return r.n }

// Bytes returns the received payload size (valid once Done).
func (r *RecvRequest) Bytes() int { return r.n }

// Tag returns the tag of the matched message (valid once matched; useful
// with masked receives).
func (r *RecvRequest) Tag() Tag { return r.tag }

// Source returns the sending node (valid once matched).
func (r *RecvRequest) Source() simnet.NodeID { return r.src }

// matches reports whether an incoming tag satisfies this receive.
func (r *RecvRequest) matchesTag(tag Tag) bool { return (tag^r.want)&r.mask == 0 }

// RequestGroup composes several requests into one: it completes when
// every member has, and its error is the first member error.
// Applications use it to treat a whole exchange as one handle. The zero
// value is an empty, completed group.
type RequestGroup struct {
	reqs []Request
	err  error // immediate validation error, set by Fail
}

// NewRequestGroup builds a group over the given requests.
func NewRequestGroup(reqs ...Request) *RequestGroup {
	return &RequestGroup{reqs: reqs}
}

// FailedRequest returns a request that is already complete with err: the
// unified way to report immediate validation failures through the
// nonblocking API.
func FailedRequest(err error) *RequestGroup {
	return &RequestGroup{err: err}
}

// Add appends one more request to the group.
func (g *RequestGroup) Add(r Request) { g.reqs = append(g.reqs, r) }

// Requests returns the members in add order.
func (g *RequestGroup) Requests() []Request { return g.reqs }

// Done reports whether every member has completed.
func (g *RequestGroup) Done() bool {
	if g.err != nil {
		return true
	}
	for _, r := range g.reqs {
		if !r.Done() {
			return false
		}
	}
	return true
}

// Test reports completion of the whole group without blocking.
func (g *RequestGroup) Test() bool { return g.Done() }

// Err returns the immediate error, or the first member error once the
// members complete.
func (g *RequestGroup) Err() error {
	if g.err != nil {
		return g.err
	}
	for _, r := range g.reqs {
		if err := r.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Wait blocks until every member completes and returns the first error.
func (g *RequestGroup) Wait(p *sim.Proc) error {
	if g.err != nil {
		return g.err
	}
	return WaitAll(p, g.reqs...)
}

// Bytes sums the member payload sizes.
func (g *RequestGroup) Bytes() int {
	n := 0
	for _, r := range g.reqs {
		n += r.Bytes()
	}
	return n
}

// watch makes p the watcher of every member.
func (g *RequestGroup) watch(p *sim.Proc) {
	for _, r := range g.reqs {
		r.watch(p)
	}
}
