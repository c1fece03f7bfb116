package madmpi

import (
	"fmt"

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
// read from base (the address of the first element).
func (c *Comm) IsendTyped(p *sim.Proc, base []byte, t Datatype, count, dest, tag int) *Request {
	if err := c.checkSend(dest, tag); err != nil {
		return failedRequest(err)
	}
	iov, err := iovec(base, t, count)
	if err != nil {
		return failedRequest(err)
	}
	return c.postSend(p, iov, dest, tag, nil)
}

// IrecvTyped starts a nonblocking receive of count elements of datatype t
// scattered into base. The sender must use a layout with the same total
// size (the usual MPI contract: matching type signatures); the payload
// scatters across the blocks in flattening order.
func (c *Comm) IrecvTyped(p *sim.Proc, base []byte, t Datatype, count, src, tag int) *Request {
	if err := c.checkPeer(src); err != nil {
		return failedRequest(err)
	}
	if err := checkTag(tag); err != nil {
		return failedRequest(err)
	}
	iov, err := iovec(base, t, count)
	if err != nil {
		return failedRequest(err)
	}
	op := newRecvOp()
	core.IrecvvMaskedInto(&op.r, c.gate(src), p, c.flowTag(tag), ^core.Tag(0), iov, nil)
	return &op.Request
}

// iovec flattens count elements of datatype t at base into the gather
// list the engine's vector path consumes, bounds-checking every block.
func iovec(base []byte, t Datatype, count int) ([][]byte, error) {
	segs := flatten(t, count)
	if err := checkBounds(base, segs); err != nil {
		return nil, err
	}
	iov := make([][]byte, len(segs))
	for i, s := range segs {
		iov[i] = base[s.Offset : s.Offset+s.Len]
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

func checkBounds(base []byte, segs []segment) error {
	for _, s := range segs {
		if s.Offset < 0 || s.Offset+s.Len > len(base) {
			return fmt.Errorf("madmpi: datatype segment [%d,%d) outside the %d-byte buffer",
				s.Offset, s.Offset+s.Len, len(base))
		}
	}
	return nil
}
