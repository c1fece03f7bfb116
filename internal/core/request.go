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
// operations layered above (MAD-MPI requests) — presents the same
// isend/irecv/wait/test surface of the paper's API set.
//
// The interface is sealed: completion is always signalled through an
// engine's shared condition variable, so outside implementations cannot
// exist. Compose operations with RequestGroup instead.
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
	// returns the stored error immediately.
	Wait(p *sim.Proc) error
	// Bytes is the payload size the request moved: the submitted bytes
	// of a send, the received bytes of a completed receive.
	Bytes() int

	// completionCond exposes the engine condition variable the request
	// completes on (nil for immediately-failed requests). It seals the
	// interface and lets WaitAny block on engine progress.
	completionCond() *sim.Cond
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

// waitAnyPollInterval paces WaitAny when its requests complete on
// different engines (no single condition variable covers them all).
const waitAnyPollInterval = sim.Microsecond

// WaitAny blocks until at least one request has completed and returns its
// index and completion error. Already-completed requests are returned
// immediately (lowest index first). When every request completes on one
// engine the wait blocks on that engine's shared condition variable;
// requests spanning engines fall back to deterministic virtual-time
// polling.
func WaitAny(p *sim.Proc, reqs ...Request) (int, error) {
	if len(reqs) == 0 {
		return -1, ErrNoRequests
	}
	for {
		shared, mixed := (*sim.Cond)(nil), false
		for i, r := range reqs {
			if r.Test() {
				return i, r.Err()
			}
			switch c := r.completionCond(); {
			case c == nil:
				// An incomplete request without a cond: its members span
				// engines (a mixed RequestGroup); poll.
				mixed = true
			case shared == nil:
				shared = c
			case shared != c:
				mixed = true
			}
		}
		if mixed || shared == nil {
			// Blocking on any single cond could sleep through the other
			// engines' completions; bounded virtual-time polling stays
			// deterministic and correct.
			p.Sleep(waitAnyPollInterval)
			continue
		}
		shared.Wait(p)
	}
}

// request is the completion state shared by send and receive requests.
// Completion is signalled through the engine-wide condition variable;
// simulated processes block in Wait, engine callbacks never block.
type request struct {
	eng  *Engine
	done bool
	err  error
	// hook, when set, is called once with the completion error at the
	// instant the request completes: how a submission from scheduler
	// context (Gate.PostSendv / PostRecvvMasked), which has no process to
	// Wait with, learns of completion. One word on purpose: it takes the
	// last spare word of SendRequest's and RecvRequest's malloc size
	// classes (see TestRequestSizeClasses).
	hook func(err error)
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
		r.eng.cond.Wait(p)
	}
	return r.err
}

func (r *request) completionCond() *sim.Cond {
	if r.eng == nil {
		return nil
	}
	return r.eng.cond
}

// complete finalizes the request and wakes every waiter.
func (r *request) complete(err error) {
	if r.done {
		return
	}
	r.done = true
	r.err = err
	r.eng.cond.Broadcast()
	if r.hook != nil {
		r.hook(err)
	}
}

// SendRequest tracks one submitted message (one wrapper for Isend;
// several for a packed message). It completes when the NIC has finished
// with every wrapper — for rendezvous sends, when the whole body has
// streamed out.
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
// (tag & Mask) == Want, in arrival order, FIFO against other posted
// receives of the same gate. The landing area is an iovec: Irecv posts a
// single segment, Irecvv scatters into many.
type RecvRequest struct {
	request
	want Tag
	mask Tag
	iov  iovec

	matched bool
	n       int
	tag     Tag
	src     simnet.NodeID
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
func (r *RecvRequest) matchesTag(tag Tag) bool { return tag&r.mask == r.want }

// RequestGroup composes several requests into one: it completes when
// every member has, and its error is the first member error. MAD-MPI
// builds its Request on it; applications can use it to treat a whole
// exchange as one handle. The zero value is an empty, completed group.
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

// completionCond reports the one condition variable every member
// completes on, or nil when members span engines (WaitAny then polls).
func (g *RequestGroup) completionCond() *sim.Cond {
	var shared *sim.Cond
	for _, r := range g.reqs {
		c := r.completionCond()
		if c == nil {
			continue
		}
		if shared == nil {
			shared = c
		} else if shared != c {
			return nil
		}
	}
	return shared
}
