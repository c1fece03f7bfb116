package madmpi

import (
	"fmt"
	"slices"

	"nmad/internal/core"
	"nmad/internal/sim"
)

// Typed (derived-datatype) point-to-point operations. Where MPICH packs
// every block into a temporary contiguous buffer, sends it as a single
// transaction, and unpacks on the receiving side (two full memory copies,
// paper §5.3), MAD-MPI hands the flattened layout to the engine's vector
// path: the whole non-contiguous message is ONE multi-segment wrapper
// (Gate.Isendv), NIC-gathered straight out of user space. The scheduler
// aggregates and reorders it natively with whatever else the window
// holds; above the rendezvous threshold the body streams zero-copy from
// — and scatters zero-copy into — the scattered blocks.

// IsendTyped starts a nonblocking send of count elements of datatype t
// read from base (the address of the first element). The gather list is
// the MPI's scratch: the engine copies it when the send is posted.
func (c *Comm) IsendTyped(p *sim.Proc, base []byte, t Datatype, count, dest, tag int) *Request {
	if err := c.checkSend(dest, tag); err != nil {
		return failedRequest(err)
	}
	gl := c.mpi.gatherLists()
	iov, err := iovec(gl.scratch, base, t, count)
	if err != nil {
		return failedRequest(err)
	}
	// The scratch is out of the MPI while the send is posted: another
	// process of this rank that posts while this one waits out its
	// submit overhead builds a list of its own.
	gl.scratch = nil
	h := c.postSend(p, iov, dest, tag, nil)
	clear(iov)
	gl.scratch = iov[:0]
	return h
}

// IrecvTyped starts a nonblocking receive of count elements of datatype t
// scattered into base. The sender must use a layout with the same total
// size (the usual MPI contract: matching type signatures); the payload
// scatters across the blocks in flattening order. The engine reads the
// gather list until the receive completes, so the list is the request's
// until Wait files it back on the MPI's side list (Request.free).
func (c *Comm) IrecvTyped(p *sim.Proc, base []byte, t Datatype, count, src, tag int) *Request {
	if err := c.checkPeer(src); err != nil {
		return failedRequest(err)
	}
	if err := checkTag(tag); err != nil {
		return failedRequest(err)
	}
	iov, err := iovec(c.mpi.gatherLists().get(), base, t, count)
	if err != nil {
		return failedRequest(err)
	}
	h, req := c.mpi.recvRecord()
	core.IrecvvMaskedInto(req, c.gate(src), p, c.flowTag(tag), ^core.Tag(0), iov, 0, nil)
	return h
}

// iovec flattens count elements of datatype t at base into the gather
// list the engine's vector path consumes, reusing dst's array when it is
// long enough. A first walk of the merged blocks checks each against the
// buffer and counts them, so a call that runs past its buffer fails at
// the first bad block having built nothing; a second fills the list.
func iovec(dst [][]byte, base []byte, t Datatype, count int) ([][]byte, error) {
	if count < 0 {
		return nil, fmt.Errorf("madmpi: datatype count %d is negative", count)
	}
	l, n := t.layout(), 0
	w := blockWalk{l: l, count: count}
	for s, ok := w.next(); ok; s, ok = w.next() {
		if s.Offset < 0 || s.Offset+s.Len > len(base) {
			return nil, fmt.Errorf("madmpi: datatype segment [%d,%d) outside the %d-byte buffer",
				s.Offset, s.Offset+s.Len, len(base))
		}
		n++
	}
	iov := slices.Grow(dst[:0], n)
	w = blockWalk{l: l, count: count}
	for s, ok := w.next(); ok; s, ok = w.next() {
		iov = append(iov, base[s.Offset:s.Offset+s.Len])
	}
	return iov, nil
}

// SendTyped / RecvTyped are the blocking forms.
func (c *Comm) SendTyped(p *sim.Proc, base []byte, t Datatype, count, dest, tag int) error {
	return c.IsendTyped(p, base, t, count, dest, tag).Wait(p)
}

func (c *Comm) RecvTyped(p *sim.Proc, base []byte, t Datatype, count, src, tag int) (Status, error) {
	return c.IrecvTyped(p, base, t, count, src, tag).WaitStatus(p)
}
