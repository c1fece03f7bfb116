package madmpi

import (
	"fmt"

	"nmad/internal/sim"
)

// The byte collectives, compiled onto the collective schedule engine
// (collsched.go): every operation builds a DAG of nonblocking steps and
// executes it, so rounds and segments overlap and the traffic flows
// through the scheduling strategies. Algorithms are pluggable through
// the registry in collalgo.go; the entry points here validate buffers,
// handle the local contribution and the single-rank edge cases, then
// hand off to the selected builder.
//
// Collective calls must be made by every rank of the communicator, in
// the same order — the usual MPI contract. The per-communicator sequence
// number (and its epoch extension) keeps collective tags out of the user
// tag space and distinct across consecutive operations; see collsched.go.

// Barrier blocks until every rank has entered it.
func (c *Comm) Barrier(p *sim.Proc) error {
	n := c.Size()
	if n == 1 {
		return nil
	}
	seq := c.nextCollSeq()
	return c.runColl(p, CollBarrier, 0, seq, CollArgs{Rank: c.Rank(), Size: n})
}

// barrierDissemination is the dissemination barrier: ceil(log2 n) rounds
// of exchanges at doubling distance. All round receives are preposted;
// the round-k send waits only on the round-(k-1) receive, preserving the
// transitive happened-before chain that makes the barrier a barrier.
func barrierDissemination(pl *CollPlan, a CollArgs) error {
	n, me := a.Size, a.Rank
	token := pl.token[:] // every round sends it and lands in it; nobody reads it
	token[0] = 1
	prev := -1
	for dist := 1; dist < n; dist *= 2 {
		to := (me + dist) % n
		from := (me - dist + n) % n
		pl.Send(to, token, prev)
		prev = pl.Recv(from, token)
	}
	return nil
}

// Bcast broadcasts buf from root to every rank.
func (c *Comm) Bcast(p *sim.Proc, buf []byte, root int) error {
	n := c.Size()
	if root < 0 || root >= n {
		return fmt.Errorf("%w: bcast root %d", ErrBadRank, root)
	}
	if n == 1 {
		return nil
	}
	seq := c.nextCollSeq()
	a := CollArgs{Rank: c.Rank(), Size: n, Root: root, Buf: buf, SegBytes: c.mpi.CollSegment()}
	return c.runColl(p, CollBcast, len(buf), seq, a)
}

// bcastBinomial is the binomial tree: each rank receives from its tree
// parent once, then forwards to all of its children concurrently (the
// seed serialized the child sends; here they are independent steps).
func bcastBinomial(pl *CollPlan, a CollArgs) error {
	n, root := a.Size, a.Root
	vrank := (a.Rank - root + n) % n
	mask := binomialMask(vrank)
	recvStep := -1
	if vrank != 0 {
		recvStep = pl.Recv((vrank-mask/2+root)%n, a.Buf)
	}
	for ; vrank+mask < n; mask <<= 1 {
		pl.Send((vrank+mask+root)%n, a.Buf, recvStep)
	}
	return nil
}

// bcastPipeline is the segmented chain pipeline: ranks form a chain in
// rotated rank order and each segment is forwarded as soon as it lands,
// so for long vectors every link of the chain is busy with a different
// segment at once — bandwidth-optimal for large messages.
func bcastPipeline(pl *CollPlan, a CollArgs) error {
	n, root := a.Size, a.Root
	vrank := (a.Rank - root + n) % n
	parent := (vrank - 1 + root + n) % n
	child := (vrank + 1 + root) % n
	for _, span := range segSpans(0, len(a.Buf), a.SegBytes, 1, collPairSpace) {
		seg := a.Buf[span[0] : span[0]+span[1]]
		switch {
		case vrank == 0:
			pl.Send(child, seg)
		case vrank == n-1:
			pl.Recv(parent, seg)
		default:
			r := pl.Recv(parent, seg)
			pl.Send(child, seg, r)
		}
	}
	return nil
}

// Gather collects each rank's sendBuf into recvBuf at root, rank order.
// recvBuf must be exactly Size×len(sendBuf) bytes at root (ErrCollBuffer
// otherwise) and is ignored elsewhere. Every rank must contribute the
// same length.
func (c *Comm) Gather(p *sim.Proc, sendBuf, recvBuf []byte, root int) error {
	n, me := c.Size(), c.Rank()
	if root < 0 || root >= n {
		return fmt.Errorf("%w: gather root %d", ErrBadRank, root)
	}
	// The slot is consumed before the root-side buffer check: only the
	// root can fail it, and the other ranks (which cannot see the
	// root's buffer) must stay in tag-space lockstep.
	seq := c.nextCollSeq()
	per := len(sendBuf)
	if me == root {
		if len(recvBuf) != n*per {
			return fmt.Errorf("%w: gather recv buffer %d bytes, want exactly %d (%d ranks × %d)",
				ErrCollBuffer, len(recvBuf), n*per, n, per)
		}
		copy(recvBuf[me*per:(me+1)*per], sendBuf)
	}
	if n == 1 {
		return nil
	}
	a := CollArgs{Rank: me, Size: n, Root: root, SendBuf: sendBuf, RecvBuf: recvBuf, SegBytes: c.mpi.CollSegment()}
	return c.runColl(p, CollGather, per, seq, a)
}

// gatherLinear posts every receive at the root concurrently; leaves send
// their single contribution.
func gatherLinear(pl *CollPlan, a CollArgs) error {
	n, me, root := a.Size, a.Rank, a.Root
	if me != root {
		pl.Send(root, a.SendBuf)
		return nil
	}
	per := len(a.SendBuf)
	for r := 0; r < n; r++ {
		if r == me {
			continue
		}
		pl.Recv(r, a.RecvBuf[r*per:(r+1)*per])
	}
	return nil
}

// Scatter distributes equal slices of sendBuf (significant at root only,
// exactly Size×len(recvBuf) bytes there) to every rank's recvBuf.
func (c *Comm) Scatter(p *sim.Proc, sendBuf, recvBuf []byte, root int) error {
	n, me := c.Size(), c.Rank()
	if root < 0 || root >= n {
		return fmt.Errorf("%w: scatter root %d", ErrBadRank, root)
	}
	// As in Gather, consume the slot before the root-only check.
	seq := c.nextCollSeq()
	per := len(recvBuf)
	if me == root {
		if len(sendBuf) != n*per {
			return fmt.Errorf("%w: scatter send buffer %d bytes, want exactly %d (%d ranks × %d)",
				ErrCollBuffer, len(sendBuf), n*per, n, per)
		}
		copy(recvBuf, sendBuf[me*per:(me+1)*per])
	}
	if n == 1 {
		return nil
	}
	a := CollArgs{Rank: me, Size: n, Root: root, SendBuf: sendBuf, RecvBuf: recvBuf, SegBytes: c.mpi.CollSegment()}
	return c.runColl(p, CollScatter, per, seq, a)
}

// scatterLinear posts every slice send at the root concurrently.
func scatterLinear(pl *CollPlan, a CollArgs) error {
	n, me, root := a.Size, a.Rank, a.Root
	if me != root {
		pl.Recv(root, a.RecvBuf)
		return nil
	}
	per := len(a.RecvBuf)
	for r := 0; r < n; r++ {
		if r == me {
			continue
		}
		pl.Send(r, a.SendBuf[r*per:(r+1)*per])
	}
	return nil
}

// Allgather is Gather to everyone: each rank ends with every rank's
// contribution in rank order. recvBuf must be exactly Size×len(sendBuf)
// bytes on every rank.
func (c *Comm) Allgather(p *sim.Proc, sendBuf, recvBuf []byte) error {
	n, me := c.Size(), c.Rank()
	per := len(sendBuf)
	if len(recvBuf) != n*per {
		return fmt.Errorf("%w: allgather recv buffer %d bytes, want exactly %d (%d ranks × %d)",
			ErrCollBuffer, len(recvBuf), n*per, n, per)
	}
	copy(recvBuf[me*per:(me+1)*per], sendBuf)
	if n == 1 {
		return nil
	}
	seq := c.nextCollSeq()
	a := CollArgs{Rank: me, Size: n, SendBuf: sendBuf, RecvBuf: recvBuf, SegBytes: c.mpi.CollSegment()}
	return c.runColl(p, CollAllgather, n*per, seq, a)
}

// allgatherRing is the classic ring: in round t each rank forwards the
// slot it received in round t-1 to its successor, so after n-1 rounds
// every slot has visited every rank. Each link carries (n-1)/n of the
// total — bandwidth-optimal — and the rounds pipeline around the ring.
func allgatherRing(pl *CollPlan, a CollArgs) error {
	n, me := a.Size, a.Rank
	per := len(a.SendBuf)
	next, prev := (me+1)%n, (me-1+n)%n
	pl.reserve(2*(n-1), max(n-2, 0)) // each send after the first waits on a receive
	prevRecv := -1
	for t := 0; t < n-1; t++ {
		sendSlot := (me - t + n) % n
		recvSlot := (me - t - 1 + n) % n
		pl.Send(next, a.RecvBuf[sendSlot*per:(sendSlot+1)*per], prevRecv)
		prevRecv = pl.Recv(prev, a.RecvBuf[recvSlot*per:(recvSlot+1)*per])
	}
	return nil
}

// allgatherGatherBcast fuses a linear gather to rank 0 with a binomial
// broadcast of the assembled buffer into one DAG — the latency-optimal
// shape for small payloads.
func allgatherGatherBcast(pl *CollPlan, a CollArgs) error {
	n, me := a.Size, a.Rank
	per := len(a.SendBuf)
	if me == 0 {
		var gdeps []int
		for r := 1; r < n; r++ {
			gdeps = append(gdeps, pl.Recv(r, a.RecvBuf[r*per:(r+1)*per]))
		}
		for child := 1; child < n; child <<= 1 {
			pl.Send(child, a.RecvBuf, gdeps...)
		}
		return nil
	}
	// The broadcast receive overwrites recvBuf, which may alias the
	// contribution still streaming to the root — order them.
	mask := binomialMask(me)
	s := pl.Send(0, a.SendBuf)
	r := pl.Recv(me-mask/2, a.RecvBuf, s)
	for ; me+mask < n; mask <<= 1 {
		pl.Send(me+mask, a.RecvBuf, r)
	}
	return nil
}

// Alltoall exchanges the i-th slice of sendBuf with rank i; every rank
// ends with one slice from everyone in recvBuf, rank order. Slice size
// is len(sendBuf)/Size; recvBuf must be exactly len(sendBuf) bytes.
func (c *Comm) Alltoall(p *sim.Proc, sendBuf, recvBuf []byte) error {
	n, me := c.Size(), c.Rank()
	if len(sendBuf)%n != 0 {
		return fmt.Errorf("%w: alltoall send buffer %d bytes not divisible by %d ranks",
			ErrCollBuffer, len(sendBuf), n)
	}
	per := len(sendBuf) / n
	if len(recvBuf) != n*per {
		return fmt.Errorf("%w: alltoall recv buffer %d bytes, want exactly %d",
			ErrCollBuffer, len(recvBuf), n*per)
	}
	copy(recvBuf[me*per:(me+1)*per], sendBuf[me*per:(me+1)*per])
	if n == 1 {
		return nil
	}
	seq := c.nextCollSeq()
	a := CollArgs{Rank: me, Size: n, SendBuf: sendBuf, RecvBuf: recvBuf, SegBytes: c.mpi.CollSegment()}
	return c.runColl(p, CollAlltoall, per, seq, a)
}

// alltoallLinear posts every send and receive at once and lets the
// optimizer aggregate — fine for small slices.
func alltoallLinear(pl *CollPlan, a CollArgs) error {
	n, me := a.Size, a.Rank
	per := len(a.SendBuf) / n
	for r := 0; r < n; r++ {
		if r == me {
			continue
		}
		pl.Recv(r, a.RecvBuf[r*per:(r+1)*per])
	}
	for r := 0; r < n; r++ {
		if r == me {
			continue
		}
		pl.Send(r, a.SendBuf[r*per:(r+1)*per])
	}
	return nil
}

// alltoallPairwise walks n-1 rounds of disjoint pairwise exchanges
// (round r: send to me+r, receive from me-r), chaining rounds so at most
// one round per peer pair is in flight — bounded buffering for large
// slices, where the linear algorithm floods every gate at once.
func alltoallPairwise(pl *CollPlan, a CollArgs) error {
	n, me := a.Size, a.Rank
	per := len(a.SendBuf) / n
	prevS, prevR := -1, -1
	for r := 1; r < n; r++ {
		to := (me + r) % n
		from := (me - r + n) % n
		s := pl.Send(to, a.SendBuf[to*per:(to+1)*per], prevS, prevR)
		prevR = pl.Recv(from, a.RecvBuf[from*per:(from+1)*per], prevS, prevR)
		prevS = s
	}
	return nil
}
