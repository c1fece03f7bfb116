package core

import (
	"math"

	"nmad/internal/sim"
)

// timer is one deferred step of an engine, due at instant at and pushed
// seq-th. ref is the record the step acts on, and its type is the step's
// kind (see fire); arg is the one word the kind needs beside it: the
// generation a check or an ack was armed at, a probe's ping count, the
// bytes a receive could not land. 32 bytes, so the queue's backing stays
// small.
type timer struct {
	at  sim.Time
	seq uint32
	arg uint32
	ref any
}

// before orders timers by instant, then push order. seq wraps: the
// entries queued at once span far fewer than 2^31 pushes.
func (t *timer) before(u *timer) bool {
	return t.at < u.at || t.at == u.at && int32(t.seq-u.seq) < 0
}

// after defers the step (ref, arg) by d. Every deferral of an engine but
// a post's software-gather copy (runPosted) is one entry of its queue and
// one kernel event for fireFn, Engine.fire bound at the engine's first
// deferral. The kernel fires events in (instant, scheduling) order, and
// the entries are pushed in scheduling order, so the k-th event to fire
// always pops the least (instant, seq) entry: its own. Delays may differ
// from step to step. A step that must not act once its record moved on
// (a retransmit check, a delayed ack) carries the record's generation in
// arg and is void when it no longer matches: a kernel event cannot be
// cancelled.
//
// The queue is two sorted stores whose heads fire merges. An entry due no
// earlier than the newest of Engine.run joins that FIFO, and any other
// goes in the binary min-heap Engine.timers. So a stream of equal delays
// (the posts, the retransmit checks) costs a FIFO's O(1), and the heap
// holds only the entries that overtake it.
func (e *Engine) after(d sim.Time, ref any, arg uint32) {
	if e.fireFn == nil {
		e.fireFn = e.fire
	}
	at := e.world.Now() + max(d, 0)
	if at < 0 { // past the end of time, where World.After saturates
		at = math.MaxInt64
	}
	e.timerSeq++
	t := timer{at: at, seq: e.timerSeq, arg: arg, ref: ref}
	if q := e.run.items; len(q) == 0 || q[len(q)-1].at <= at {
		e.run.push(t)
	} else {
		h := append(e.timers, t)
		for i := len(h) - 1; i > 0 && h[i].before(&h[(i-1)/2]); i = (i - 1) / 2 {
			h[i], h[(i-1)/2] = h[(i-1)/2], h[i]
		}
		e.timers = h
	}
	e.world.At(at, e.fireFn)
}

// fire pops the least entry and runs its step. It pops before running,
// so a step that defers again queues behind, not in its place.
func (e *Engine) fire() {
	var t timer
	if q := &e.run; len(q.items) > 0 && (len(e.timers) == 0 || q.items[q.head].before(&e.timers[0])) {
		t = q.pop()
	} else {
		h := e.timers
		n := len(h) - 1
		t = h[0]
		h[0], h[n] = h[n], timer{}
		h = h[:n]
		for i, c := 0, 1; c < n; i, c = c, 2*c+1 {
			if c+1 < n && h[c+1].before(&h[c]) {
				c++
			}
			if !h[c].before(&h[i]) {
				break
			}
			h[i], h[c] = h[c], h[i]
		}
		e.timers = h
	}
	switch ref := t.ref.(type) {
	case nil: // a post, whose call waits in the post FIFO (see post)
		e.runPosted(e.posts.pop())
	case *RecvRequest: // an eager receive's copy is paid for; arg bytes did not fit
		ref.complete(truncErr(t.arg > 0))
	case *output: // its schedule overhead is paid
		ref.ready()
	case *linkFrame: // a retransmit check
		e.linkExpire(ref, t.arg)
	case *Gate: // a delayed ack
		ref.linkAckDue(t.arg)
	case *rdvRecv: // a rendezvous body watch
		e.bodyWatch(ref)
	case *rail: // a failed rail's probe
		e.probe(ref, t.arg)
	}
}
