package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"nmad/internal/sim"
	"nmad/internal/simnet"
	"nmad/internal/trace"
)

// Gate.PostSendv / PostRecvvMasked promise the schedule a process would
// have produced. These tests drive one workload on three nodes twice —
// once by a process per operation (IsendvInto / IrecvvMaskedInto + Wait),
// once from World.At callbacks — and demand identical tracer timelines,
// Stats, completion instants, errors and delivered bytes.

// postOp is one operation of the workload: node issues it toward peer at
// instant at — or, when after is set, as soon as op after-1 has completed:
// its process goes on to it in the live run, its completion hook posts it
// in the other.
type postOp struct {
	at    sim.Time
	after int
	node  int
	peer  int // 0 and 1 default to each other: a node never addresses itself
	send  bool
	tag   Tag
	mask  Tag // receives; 0 means exact match
	segs  []int
	opts  []SendOption
	err   error // the completion error the op must end with
}

// postNodes is the size of every post workload's fabric.
const postNodes = 3

// postResult is everything observable about one run of a workload.
type postResult struct {
	Events [postNodes][]trace.Event
	Stats  [postNodes]Stats
	DoneAt []sim.Time
	Errs   []error
	Got    [][]byte // flattened landing area of each receive
}

func repeatSegs(n, size int) []int {
	segs := make([]int, n)
	for i := range segs {
		segs[i] = size
	}
	return segs
}

func runPostWorkload(t *testing.T, opts Options, host simnet.Host, ops []postOp, procs bool) postResult {
	t.Helper()
	w := sim.NewWorld()
	f := simnet.NewFabric(w, postNodes, host)
	if _, err := f.AddNetwork(simnet.MX10G()); err != nil {
		t.Fatal(err)
	}
	var engines [postNodes]*Engine
	var tracers [postNodes]*trace.Recorder
	for node := range engines {
		o := opts
		tracers[node] = trace.NewRecorder()
		o.Tracer = tracers[node]
		e, err := New(f, simnet.NodeID(node), o)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.AttachFabric(f); err != nil {
			t.Fatal(err)
		}
		engines[node] = e
	}
	res := postResult{
		DoneAt: make([]sim.Time, len(ops)),
		Errs:   make([]error, len(ops)),
		Got:    make([][]byte, len(ops)),
	}
	bufs := make([][][]byte, len(ops))
	next := make([]int, len(ops)) // 1 + the op issued when op i completes, 0 for none
	for i, op := range ops {
		bufs[i], _ = segsOf(sim.NewRNG(uint64(100+i)), op.segs...)
		if op.after > 0 {
			next[op.after-1] = i + 1
		}
	}
	gate := func(i int) *Gate {
		op := ops[i]
		if op.peer == op.node {
			op.peer = 1 - op.node
		}
		return engines[op.node].Gate(simnet.NodeID(op.peer))
	}
	mask := func(i int) Tag {
		if ops[i].mask == 0 {
			return ^Tag(0)
		}
		return ops[i].mask
	}
	// live runs op i, and whatever chains on it, in process p. Its
	// request's hook must fire once, at the instant Wait returns, with
	// the id the request was posted with and the error Wait returns.
	var live func(p *sim.Proc, i int)
	live = func(p *sim.Proc, i int) {
		op := ops[i]
		hooks, hookAt, hookErr := 0, sim.Time(0), error(nil)
		hook := func(id uint32, err error) {
			if id != uint32(i) {
				t.Errorf("op %d: hook got id %d", i, id)
			}
			hooks, hookAt, hookErr = hooks+1, w.Now(), err
		}
		var req Request
		if op.send {
			s := new(SendRequest)
			IsendvInto(s, gate(i), p, op.tag, bufs[i], uint32(i), hook, op.opts...)
			req = s
		} else {
			r := new(RecvRequest)
			IrecvvMaskedInto(r, gate(i), p, op.tag, mask(i), bufs[i], uint32(i), hook)
			req = r
		}
		res.Errs[i] = req.Wait(p)
		res.DoneAt[i] = p.Now()
		if hooks != 1 || hookAt != p.Now() || hookErr != res.Errs[i] {
			t.Errorf("op %d: hook fired %d time(s), last at %v with %v; Wait returned %v at %v",
				i, hooks, hookAt, hookErr, res.Errs[i], p.Now())
		}
		if next[i] > 0 {
			live(p, next[i]-1)
		}
	}
	// post posts op i from scheduler context; its hook posts what chains
	// on it.
	var post func(i int)
	post = func(i int) {
		op := ops[i]
		fired := false
		done := func(_ uint32, err error) {
			if fired {
				t.Errorf("op %d: completion hook fired twice", i)
			}
			fired = true
			res.Errs[i] = err
			res.DoneAt[i] = w.Now()
			if next[i] > 0 {
				post(next[i] - 1)
			}
		}
		var req Request
		if op.send {
			s := new(SendRequest)
			gate(i).PostSendv(s, op.tag, bufs[i], done, op.opts...)
			req = s
		} else {
			r := new(RecvRequest)
			gate(i).PostRecvvMasked(r, op.tag, mask(i), bufs[i], done)
			req = r
		}
		if req.Done() != fired {
			t.Errorf("op %d: the returned request reads Done=%v with the hook fired=%v", i, req.Done(), fired)
		}
	}
	for i, op := range ops {
		switch {
		case op.after > 0:
		case procs:
			w.Spawn(fmt.Sprintf("op%d", i), func(p *sim.Proc) {
				p.Sleep(op.at)
				live(p, i)
			})
		default:
			w.At(op.at, func() { post(i) })
		}
	}
	run(t, w)
	for node := range engines {
		res.Events[node] = tracers[node].Events()
		res.Stats[node] = engines[node].Stats()
	}
	for i, op := range ops {
		if !op.send {
			res.Got[i] = iovec(bufs[i]).flatten()
		}
	}
	return res
}

func TestPostMatchesProcessSubmission(t *testing.T) {
	noOverhead := DefaultOptions()
	noOverhead.SubmitOverhead = 0
	// A host whose memcpy of a few dozen bytes rounds to zero
	// nanoseconds: the gather path must still yield the instant.
	fastHost := simnet.Host{MemcpyBandwidth: 1e12}

	// The mix every case runs: overlapping eager sends on two flows, a
	// rendezvous, a priority send, a masked receive, traffic both ways.
	mix := []postOp{
		{at: 0, node: 0, send: true, tag: 1, segs: []int{64, 5, 300}},
		{at: 0, node: 0, send: true, tag: 2, segs: []int{128}},
		{at: 0, node: 1, tag: 1, segs: []int{100, 269}},
		{at: 0, node: 1, tag: 2, segs: []int{128}},
		{at: 40, node: 0, send: true, tag: 1, segs: []int{512}, opts: []SendOption{Priority()}},
		{at: 40, node: 1, tag: 0x10, mask: 0xf0, segs: []int{256 << 10}},
		{at: 40, node: 1, send: true, tag: 7, segs: []int{1 << 10}},
		{at: 90, node: 0, send: true, tag: 0x13, segs: []int{200 << 10, 56 << 10}},
		{at: 90, node: 0, tag: 7, segs: []int{1 << 10}},
		{at: 200, node: 1, tag: 1, segs: []int{512}},
	}
	with := func(extra ...postOp) []postOp { return append(append([]postOp(nil), mix...), extra...) }

	for _, tc := range []struct {
		name string
		opts Options
		host simnet.Host
		ops  []postOp
		// matchedAtPost lists receives that must complete one payload
		// memcpy after their post, with no wire to wait for.
		matchedAtPost []int
	}{
		{name: "submit overhead", opts: DefaultOptions(), host: simnet.DefaultHost(), ops: mix},
		{name: "no submit overhead", opts: noOverhead, host: simnet.DefaultHost(), ops: mix},
		{name: "software gather", opts: DefaultOptions(), host: simnet.DefaultHost(), ops: with(
			// MX gathers 32 segments and 800 B is far under its rendezvous
			// threshold: flattened, and the memcpy charged.
			postOp{at: 60, node: 0, send: true, tag: 30, segs: repeatSegs(100, 8)},
			postOp{at: 60, node: 0, send: true, tag: 31, segs: []int{64}},
			postOp{at: 0, node: 1, tag: 30, segs: []int{800}},
			postOp{at: 0, node: 1, tag: 31, segs: []int{64}},
		)},
		{name: "software gather at zero cost", opts: noOverhead, host: fastHost, ops: with(
			postOp{at: 60, node: 0, send: true, tag: 30, segs: repeatSegs(40, 1)},
			postOp{at: 60, node: 0, send: true, tag: 31, segs: []int{64}},
			postOp{at: 0, node: 1, tag: 30, segs: []int{40}},
			postOp{at: 0, node: 1, tag: 31, segs: []int{64}},
		)},
		{name: "synchronous send", opts: DefaultOptions(), host: simnet.DefaultHost(), ops: with(
			postOp{at: 10, node: 0, send: true, tag: 40, segs: []int{96}, opts: []SendOption{Synchronous()}},
			postOp{at: 300 * sim.Microsecond, node: 1, tag: 40, segs: []int{96}},
		)},
		{name: "receive matches an unexpected arrival", opts: noOverhead, host: simnet.DefaultHost(), ops: with(
			postOp{at: 0, node: 0, send: true, tag: 50, segs: []int{96}},
			postOp{at: 300 * sim.Microsecond, node: 1, tag: 50, segs: []int{96}},
		), matchedAtPost: []int{len(mix) + 1}},
		{name: "a hook posts again on another gate", opts: DefaultOptions(), host: simnet.DefaultHost(), ops: with(
			// Node 1 receives a waiting rendezvous into no room at all: the
			// grant is zero, so the receive completes with ErrTruncated
			// inside the FIFO event that posts it, and its hook — its
			// process, in the live run — at once sends to node 2, while a
			// receive from node 2 posted at the same instant is still
			// queued behind it in node 1's FIFO.
			postOp{at: 0, node: 0, send: true, tag: 60, segs: []int{256 << 10}},
			postOp{at: 300 * sim.Microsecond, node: 1, tag: 60, segs: []int{0}, err: ErrTruncated},
			postOp{at: 300 * sim.Microsecond, node: 1, peer: 2, tag: 61, segs: []int{64}},
			postOp{after: len(mix) + 2, node: 1, peer: 2, send: true, tag: 62, segs: []int{128}},
			postOp{at: 0, node: 2, peer: 1, tag: 62, segs: []int{128}},
			postOp{at: 310 * sim.Microsecond, node: 2, peer: 1, send: true, tag: 61, segs: []int{64}},
			// And a chain on node 2, the other way: its receive's hook
			// answers node 1, whose receive is already posted.
			postOp{at: 320 * sim.Microsecond, node: 1, peer: 2, send: true, tag: 63, segs: []int{32}},
			postOp{at: 0, node: 2, peer: 1, tag: 63, segs: []int{32}},
			postOp{after: len(mix) + 8, node: 2, peer: 1, send: true, tag: 64, segs: []int{48}},
			postOp{at: 0, node: 1, peer: 2, tag: 64, segs: []int{48}},
		)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			live := runPostWorkload(t, tc.opts, tc.host, tc.ops, true)
			post := runPostWorkload(t, tc.opts, tc.host, tc.ops, false)
			busy := [postNodes]bool{}
			for i, err := range live.Errs {
				if op := tc.ops[i]; !errors.Is(err, op.err) || (err == nil) != (op.err == nil) {
					t.Errorf("op %d ended with %v in the process-driven run, want %v", i, err, op.err)
				}
				busy[tc.ops[i].node] = true
			}
			for node := range live.Events {
				if busy[node] && len(live.Events[node]) == 0 {
					t.Fatalf("node %d traced nothing", node)
				}
				if !reflect.DeepEqual(live.Events[node], post.Events[node]) {
					t.Errorf("node %d timeline differs: %d events by processes, %d from scheduler context",
						node, len(live.Events[node]), len(post.Events[node]))
				}
				if !reflect.DeepEqual(live.Stats[node], post.Stats[node]) {
					t.Errorf("node %d stats differ:\nprocs: %+v\n post: %+v", node, live.Stats[node], post.Stats[node])
				}
			}
			if !reflect.DeepEqual(live.DoneAt, post.DoneAt) {
				t.Errorf("completion instants differ:\nprocs: %v\n post: %v", live.DoneAt, post.DoneAt)
			}
			if !reflect.DeepEqual(live.Errs, post.Errs) {
				t.Errorf("completion errors differ:\nprocs: %v\n post: %v", live.Errs, post.Errs)
			}
			for i := range live.Got {
				if !bytes.Equal(live.Got[i], post.Got[i]) {
					t.Errorf("op %d delivered different bytes", i)
				}
			}
			for _, i := range tc.matchedAtPost {
				op := tc.ops[i]
				want := op.at + sim.ByteTime(op.segs[0], tc.host.MemcpyBandwidth)
				if post.DoneAt[i] != want {
					t.Errorf("op %d completed at %v, want %v: the match did not happen inside the post", i, post.DoneAt[i], want)
				}
			}
		})
	}
}

// An engine with no rail attached fails a send at once: the process form
// returns a completed request, the scheduler-context form calls the hook
// before it returns.
func TestPostSendvWithoutDrivers(t *testing.T) {
	w := sim.NewWorld()
	f := simnet.NewFabric(w, 2, simnet.DefaultHost())
	e, err := New(f, 0, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := e.Gate(1).Isendv(nil, 1, [][]byte{make([]byte, 8)}).Err()
	if !errors.Is(want, errNoDrivers) {
		t.Fatalf("Isendv without drivers: %v", want)
	}
	calls := 0
	var got error
	e.Gate(1).PostSendv(new(SendRequest), 1, [][]byte{make([]byte, 8)}, func(_ uint32, err error) { calls++; got = err })
	if calls != 1 || !errors.Is(got, errNoDrivers) {
		t.Errorf("hook called %d time(s) with %v, want once with %v", calls, got, errNoDrivers)
	}
	run(t, w)
	if calls != 1 {
		t.Errorf("hook called %d times after the run", calls)
	}
}

// A send pinned to a rail the engine does not have fails the entry check
// of every send form with ErrBadRail; nothing is submitted and the run
// drains. (Unchecked, the rail indexes past the driver list and comes out
// of World.Run as a process panic.)
func TestOnRailOutOfRangeFailsTheSend(t *testing.T) {
	for _, rail := range []int{7, 1, -2} {
		w, e0, _ := testWorld(t, DefaultOptions()) // one rail: index 0
		g := e0.Gate(1)
		data := make([]byte, 64)
		var posted error
		w.Spawn("sender", func(p *sim.Proc) {
			if err := g.Isend(p, 1, data, OnRail(rail)).Wait(p); !errors.Is(err, ErrBadRail) {
				t.Errorf("Isend on rail %d: %v, want ErrBadRail", rail, err)
			}
			if err := g.Isendv(p, 1, [][]byte{data, data}, OnRail(rail)).Wait(p); !errors.Is(err, ErrBadRail) {
				t.Errorf("Isendv on rail %d: %v, want ErrBadRail", rail, err)
			}
			m := g.BeginPack(p, 2, OnRail(rail))
			m.Pack(p, data)
			m.PackPriority(p, data)
			if err := m.End(p); !errors.Is(err, ErrBadRail) {
				t.Errorf("BeginPack on rail %d: End = %v, want ErrBadRail", rail, err)
			}
		})
		w.At(0, func() {
			g.PostSendv(new(SendRequest), 3, [][]byte{data}, func(_ uint32, err error) { posted = err }, OnRail(rail))
		})
		run(t, w)
		if !errors.Is(posted, ErrBadRail) {
			t.Errorf("PostSendv on rail %d: hook got %v, want ErrBadRail", rail, posted)
		}
		if n := e0.Stats().Submitted; n != 0 {
			t.Errorf("rail %d: %d wrappers submitted, want none", rail, n)
		}
	}
}

// Pack makes the same entry check as Isend: on an engine with no rail
// the message fails at once instead of parking End forever.
func TestPackWithoutDriversFails(t *testing.T) {
	w := sim.NewWorld()
	f := simnet.NewFabric(w, 2, simnet.DefaultHost())
	e, err := New(f, 0, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	w.Spawn("packer", func(p *sim.Proc) {
		m := e.Gate(1).BeginPack(p, 1)
		m.Pack(p, make([]byte, 8))
		if err := m.End(p); !errors.Is(err, errNoDrivers) {
			t.Errorf("End = %v, want errNoDrivers", err)
		}
	})
	run(t, w)
}

// chargeSubmit does not sleep when there is no overhead to pay, so the
// scheduler-context entries must not yield either: the wrapper is in the
// window, and the receive posted, before the call returns.
func TestPostWithoutOverheadSubmitsInline(t *testing.T) {
	opts := DefaultOptions()
	opts.SubmitOverhead = 0
	_, e0, _ := testWorld(t, opts) // the world never runs: nothing here waits for the wire
	g := e0.Gate(1)
	g.PostSendv(new(SendRequest), 1, [][]byte{make([]byte, 64)}, func(uint32, error) {})
	if got := e0.Stats().Submitted; got != 1 {
		t.Errorf("%d wrappers submitted when PostSendv returned, want 1", got)
	}
	g.PostRecvvMasked(new(RecvRequest), 2, ^Tag(0), [][]byte{make([]byte, 64)}, func(uint32, error) {})
	if got := g.PendingPosted(); got != 1 {
		t.Errorf("%d receives posted when PostRecvvMasked returned, want 1", got)
	}
}
