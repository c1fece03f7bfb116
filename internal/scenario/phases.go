package scenario

import (
	"bytes"
	"fmt"

	"nmad/internal/madmpi"
	"nmad/internal/sim"
)

// The phase workloads. Every phase is a set of cooperating processes
// spawned on its participant ranks at the phase's start instant; a
// phase completes when the last of them finishes. Every payload is a
// byte ramp: byte i of message m from sender s in phase ph is
// byte(c + i), with c = byte(ph*53 + s*31 + m*7). Every receiver checks
// it, one 256-byte chunk at a time against a window of one package-level
// ramp (a memequal per chunk), and checks that the receive completed at
// full length — payload corruption is counted, not fatal, and surfaces
// through the `integrity` assertion. A sender that posts many messages
// at once (ring, incast, composite) fills one read-only pattern and
// sends windows onto it: the pattern repeats every 256 bytes, so message
// m is the slice of it that starts at byte 7m mod 256. The windows
// overlap; the engine only reads them, and a write into one would break
// the payloads verified downstream.
//
// Tag discipline: phase i owns the user-tag window [i*tagStride,
// (i+1)*tagStride), so overlapping phases never steal each other's
// matches. Collective phases run on a dedicated communicator (dup'd in
// phase order on every rank at setup, so the ids agree cluster-wide)
// for the same reason.
const tagStride = 1 << 16

// phaseRun tracks one phase's outcome.
type phaseRun struct {
	spec PhaseSpec
	// index is the phase's position in Scenario.Phases: its tag window
	// and the first term of its payload pattern.
	index     int
	start     sim.Time
	end       sim.Time
	done      bool
	integrity int // corrupted payloads observed by this phase
	pending   int // running processes
	// waiter is the queue job holding its worker slot until the phase closes.
	waiter *sim.Proc
	// comms is a collective phase's dedicated communicator, one per rank.
	comms []*madmpi.Comm
}

// finishOne marks one participant process done; the last one closes the
// phase and wakes its job.
func (pr *phaseRun) finishOne(now sim.Time) {
	pr.pending--
	if pr.pending == 0 {
		pr.end = now
		pr.done = true
		pr.waiter.Unpark()
	}
}

// ramp holds two periods of the byte ramp, ramp[j] == byte(j), so that
// every 256-byte window of a payload is one slice of it.
var ramp = func() (r [511]byte) {
	for j := range r {
		r[j] = byte(j)
	}
	return r
}()

// rampAt returns the 256 bytes that every chunk of message m from sender
// s in phase ph starts with: its byte i is byte(c + i), where c is the
// message's first byte.
func rampAt(ph, s, m int) []byte {
	c := byte(ph*53 + s*31 + m*7)
	return ramp[c : int(c)+256]
}

// fill writes the deterministic pattern of message m from sender s in
// phase ph: the byte ramp starting at c, one 256-byte window per chunk.
func fill(buf []byte, ph, s, m int) {
	w := rampAt(ph, s, m)
	for len(buf) > 0 {
		buf = buf[copy(buf, w):]
	}
}

// pattern returns the read-only pattern of sender s in phase ph for
// messages of size bytes: fill's bytes for message 0, 255 bytes longer
// than a message so that every message is a window onto it.
func pattern(ph, s, size int) []byte {
	pat := make([]byte, size+255)
	fill(pat, ph, s, 0)
	return pat
}

// window returns message m of size bytes from a pattern — byte for byte
// what fill writes for it — capped so that nothing appended to it can
// reach the bytes beyond.
func window(pat []byte, m, size int) []byte {
	o := (7 * m) & 255
	return pat[o : o+size : o+size]
}

// verify counts a corrupted payload (1 per bad message, not per byte):
// it compares buf with fill's bytes one 256-byte chunk at a time.
func verify(buf []byte, ph, s, m int) int {
	w := rampAt(ph, s, m)
	for len(buf) > 0 {
		n := min(len(buf), len(w))
		if !bytes.Equal(buf[:n], w[:n]) {
			return 1
		}
		buf = buf[n:]
	}
	return 0
}

// received counts a received payload as corrupted when it is not all of
// message m from sender s: n is the byte count the receive completed
// with. Receive buffers serve message after message, so one that
// completed short still holds the previous message's bytes past n.
func received(buf []byte, n, ph, s, m int) int {
	if n != len(buf) {
		return 1
	}
	return verify(buf, ph, s, m)
}

// nodesOrAll defaults an empty participant list to the whole cluster.
func nodesOrAll(nodes []int, n int) []int {
	if len(nodes) > 0 {
		return nodes
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return all
}

// payloads returns n distinct buffers of size bytes each, cut from one
// backing array and capped so that none can grow into the next.
func payloads(n, size int) [][]byte {
	back := make([]byte, n*size)
	bufs := make([][]byte, n)
	for i := range bufs {
		bufs[i] = back[i*size : (i+1)*size : (i+1)*size]
	}
	return bufs
}

// phaseKind is one row of the phase vocabulary: what Validate demands of a
// phase of the kind beyond the common fields (nil: nothing), and how its
// processes are spawned.
type phaseKind struct {
	// collective phases span every node on a dedicated communicator:
	// Validate rejects a nodes list, Run dups the communicator at setup.
	collective bool
	check      func(v *validator, at loc, p *PhaseSpec)
	start      func(r *runner, pr *phaseRun)
}

var phaseKinds = map[string]phaseKind{
	"pingpong":  {check: checkPair, start: startPingPong},
	"ring":      {check: checkRing, start: startRing},
	"incast":    {check: checkIncast, start: startIncast},
	"composite": {check: checkPair, start: startComposite},
	"barrier":   {collective: true, start: startBarrier},
	"bcast":     {collective: true, check: checkBcast, start: startBcast},
	"allgather": {collective: true, start: startAllgather},
	"allreduce": {collective: true, start: startAllreduce},
	"alltoall":  {collective: true, start: startAlltoall},
}

// startPhase spawns the phase's processes. Called from scheduler
// context at the phase's start instant.
func (r *runner) startPhase(pr *phaseRun) {
	pr.start = r.world.Now()
	phaseKinds[pr.spec.Kind].start(r, pr)
}

// spawn starts one process of the phase on a rank; the phase closes when
// its last process returns.
func (r *runner) spawn(pr *phaseRun, rank int, nproc string, body func(q *sim.Proc) (bad int, err error)) {
	pr.pending++
	r.world.Spawn(fmt.Sprintf("%s/%s@%d", pr.spec.Name, nproc, rank), func(q *sim.Proc) {
		bad, err := body(q)
		if err != nil {
			r.procErr(pr.spec.Name, err)
		}
		pr.integrity += bad
		pr.finishOne(q.Now())
	})
}

// everyRank spawns a collective phase's body on each rank with the
// phase's dedicated communicator.
func (r *runner) everyRank(pr *phaseRun, body func(q *sim.Proc, c *madmpi.Comm, rank int) (bad int, err error)) {
	for rank := 0; rank < r.nodes(); rank++ {
		c := pr.comms[rank]
		r.spawn(pr, rank, pr.spec.Kind, func(q *sim.Proc) (int, error) { return body(q, c, rank) })
	}
}

func startPingPong(r *runner, pr *phaseRun) {
	p, ph, base := pr.spec, pr.index, pr.index*tagStride
	a, b := p.Nodes[0], p.Nodes[1]
	size := max(p.Size, 1)
	r.spawn(pr, a, "ping", func(q *sim.Proc) (bad int, err error) {
		c := r.comm(a)
		buf := make([]byte, size)
		for it := 0; it < p.Count; it++ {
			fill(buf, ph, a, it)
			if err := c.Isend(q, buf, b, base).Wait(q); err != nil {
				return bad, err
			}
			st, err := c.Irecv(q, buf, b, base+1).WaitStatus(q)
			if err != nil {
				return bad, err
			}
			bad += received(buf, st.Count, ph, b, it)
		}
		return bad, nil
	})
	r.spawn(pr, b, "pong", func(q *sim.Proc) (bad int, err error) {
		c := r.comm(b)
		buf := make([]byte, size)
		for it := 0; it < p.Count; it++ {
			st, err := c.Irecv(q, buf, a, base).WaitStatus(q)
			if err != nil {
				return bad, err
			}
			bad += received(buf, st.Count, ph, a, it)
			fill(buf, ph, b, it)
			if err := c.Isend(q, buf, a, base+1).Wait(q); err != nil {
				return bad, err
			}
		}
		return bad, nil
	})
}

func startRing(r *runner, pr *phaseRun) {
	p, ph, base := pr.spec, pr.index, pr.index*tagStride
	members := nodesOrAll(p.Nodes, r.nodes())
	size := max(p.Size, 1)
	for slot, me := range members {
		prevSlot := (slot - 1 + len(members)) % len(members)
		next, prev := members[(slot+1)%len(members)], members[prevSlot]
		r.spawn(pr, me, "ring", func(q *sim.Proc) (bad int, err error) {
			c := r.comm(me)
			// Every send of every round is a window onto one pattern.
			// The receive buffers and the request list serve every
			// round: all of a round's requests have completed at
			// Waitall.
			pat, in := pattern(ph, slot, size), payloads(p.Msgs, size)
			reqs := make([]*madmpi.Request, 0, 2*p.Msgs)
			for round := 0; round < p.Count; round++ {
				reqs = reqs[:0]
				for m := 0; m < p.Msgs; m++ {
					out := window(pat, round*p.Msgs+m, size)
					reqs = append(reqs, c.Isend(q, out, next, base+slot*p.Count+round))
					reqs = append(reqs, c.Irecv(q, in[m], prev, base+prevSlot*p.Count+round))
				}
				if err := madmpi.Waitall(q, reqs...); err != nil {
					return bad, err
				}
				for m := 0; m < p.Msgs; m++ {
					n := reqs[2*m+1].Status().Count
					bad += received(in[m], n, ph, prevSlot, round*p.Msgs+m)
				}
			}
			return bad, nil
		})
	}
}

func startIncast(r *runner, pr *phaseRun) {
	p, ph, base := pr.spec, pr.index, pr.index*tagStride
	senders := p.Senders
	if len(senders) == 0 {
		for n := 0; n < r.nodes(); n++ {
			if n != p.Target {
				senders = append(senders, n)
			}
		}
	}
	size := max(p.Size, 1)
	for si, s := range senders {
		r.spawn(pr, s, "burst", func(q *sim.Proc) (int, error) {
			c := r.comm(s)
			pat := pattern(ph, s, size)
			reqs := make([]*madmpi.Request, 0, p.Msgs)
			for m := 0; m < p.Msgs; m++ {
				reqs = append(reqs, c.Isend(q, window(pat, m, size), p.Target, base+si))
			}
			return 0, madmpi.Waitall(q, reqs...)
		})
	}
	for si, s := range senders {
		r.spawn(pr, p.Target, "drain", func(q *sim.Proc) (bad int, err error) {
			c := r.comm(p.Target)
			buf := make([]byte, size)
			for m := 0; m < p.Msgs; m++ {
				st, err := c.Irecv(q, buf, s, base+si).WaitStatus(q)
				if err != nil {
					return bad, err
				}
				bad += received(buf, st.Count, ph, s, m)
				if p.DrainGap > 0 && m+1 < p.Msgs {
					q.Sleep(p.DrainGap)
				}
			}
			return bad, nil
		})
	}
}

func startComposite(r *runner, pr *phaseRun) {
	p, ph, base := pr.spec, pr.index, pr.index*tagStride
	// The paper's headline composite: a bulk transfer with a small
	// urgent control message submitted right behind it. With the
	// priority flag the control message overtakes the bulk queue.
	a, b := p.Nodes[0], p.Nodes[1]
	bulk := max(p.Size, 1)
	const ctrlSize = 64
	r.spawn(pr, a, "mixer", func(q *sim.Proc) (int, error) {
		c := r.comm(a)
		pat := pattern(ph, a, max(bulk, ctrlSize))
		reqs := make([]*madmpi.Request, 0, 2*p.Msgs)
		for m := 0; m < p.Msgs; m++ {
			reqs = append(reqs, c.Isend(q, window(pat, 2*m, bulk), b, base))
			ctl := window(pat, 2*m+1, ctrlSize)
			if p.Priority {
				reqs = append(reqs, c.IsendPriority(q, ctl, b, base+1))
			} else {
				reqs = append(reqs, c.Isend(q, ctl, b, base+1))
			}
		}
		return 0, madmpi.Waitall(q, reqs...)
	})
	r.spawn(pr, b, "sink", func(q *sim.Proc) (bad int, err error) {
		c := r.comm(b)
		reqs := make([]*madmpi.Request, 0, 2*p.Msgs)
		bigs, ctls := payloads(p.Msgs, bulk), payloads(p.Msgs, ctrlSize)
		for m := 0; m < p.Msgs; m++ {
			reqs = append(reqs, c.Irecv(q, bigs[m], a, base))
			reqs = append(reqs, c.Irecv(q, ctls[m], a, base+1))
		}
		if err := madmpi.Waitall(q, reqs...); err != nil {
			return 0, err
		}
		for m := 0; m < p.Msgs; m++ {
			bad += received(bigs[m], reqs[2*m].Status().Count, ph, a, 2*m)
			bad += received(ctls[m], reqs[2*m+1].Status().Count, ph, a, 2*m+1)
		}
		return bad, nil
	})
}

func startBarrier(r *runner, pr *phaseRun) {
	p := pr.spec
	r.everyRank(pr, func(q *sim.Proc, c *madmpi.Comm, _ int) (int, error) {
		for it := 0; it < p.Count; it++ {
			if err := c.Barrier(q); err != nil {
				return 0, err
			}
		}
		return 0, nil
	})
}

func startBcast(r *runner, pr *phaseRun) {
	p, ph := pr.spec, pr.index
	size := max(p.Size, 1)
	r.everyRank(pr, func(q *sim.Proc, c *madmpi.Comm, rank int) (bad int, err error) {
		buf := make([]byte, size)
		for it := 0; it < p.Count; it++ {
			if rank == p.Root {
				fill(buf, ph, p.Root, it)
			}
			if err := c.Bcast(q, buf, p.Root); err != nil {
				return bad, err
			}
			bad += verify(buf, ph, p.Root, it)
		}
		return bad, nil
	})
}

func startAllgather(r *runner, pr *phaseRun) {
	p, ph := pr.spec, pr.index
	size := max(p.Size, 1)
	n := r.nodes()
	r.everyRank(pr, func(q *sim.Proc, c *madmpi.Comm, rank int) (bad int, err error) {
		mine := make([]byte, size)
		fill(mine, ph, rank, 0)
		all := make([]byte, size*n)
		if err := c.Allgather(q, mine, all); err != nil {
			return 0, err
		}
		for s := 0; s < n; s++ {
			bad += verify(all[s*size:(s+1)*size], ph, s, 0)
		}
		return bad, nil
	})
}

func startAllreduce(r *runner, pr *phaseRun) {
	p := pr.spec
	n := r.nodes()
	elems := max(p.Size/8, 1) // Size is in bytes; float64 elements
	r.everyRank(pr, func(q *sim.Proc, c *madmpi.Comm, rank int) (int, error) {
		send := make([]float64, elems)
		for i := range send {
			send[i] = float64(rank + 1)
		}
		recv := make([]float64, elems)
		if err := c.Allreduce(q, send, recv, madmpi.OpSum); err != nil {
			return 0, err
		}
		want := float64(n*(n+1)) / 2
		for i := range recv {
			if recv[i] != want {
				return 1, nil
			}
		}
		return 0, nil
	})
}

func startAlltoall(r *runner, pr *phaseRun) {
	p, ph := pr.spec, pr.index
	size := max(p.Size, 1)
	n := r.nodes()
	r.everyRank(pr, func(q *sim.Proc, c *madmpi.Comm, rank int) (bad int, err error) {
		send := make([]byte, size*n)
		for dst := 0; dst < n; dst++ {
			fill(send[dst*size:(dst+1)*size], ph, rank, dst)
		}
		recv := make([]byte, size*n)
		if err := c.Alltoall(q, send, recv); err != nil {
			return 0, err
		}
		for src := 0; src < n; src++ {
			bad += verify(recv[src*size:(src+1)*size], ph, src, rank)
		}
		return bad, nil
	})
}
