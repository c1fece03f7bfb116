package madmpi

import (
	"nmad/internal/core"
	"nmad/internal/sim"
)

// Point-to-point operations. The four nonblocking primitives (Isend,
// Irecv, Wait, Test) are direct mappings onto the engine, per §3.4 of the
// paper. A nonblocking operation's request comes from its MPI's free
// list and goes back at Wait, as MPI frees a request where it is waited.
// The blocking forms map onto the engine's blocking calls, whose request
// the engine takes from a free list and files back before the call
// returns: the caller never sees it, and MPI frees the request of a
// blocking call inside the call.

// Isend starts a nonblocking send of buf to rank dest with the given
// tag. Engine send options (core.Priority, core.OnRail, ...) pass
// through as MAD-MPI extensions.
func (c *Comm) Isend(p *sim.Proc, buf []byte, dest, tag int, opts ...core.SendOption) *Request {
	if err := c.checkSend(dest, tag); err != nil {
		return failedRequest(err)
	}
	return c.postSend(p, [][]byte{buf}, dest, tag, opts)
}

// postSend posts a validated send into a send record and returns its
// handle.
func (c *Comm) postSend(p *sim.Proc, segs [][]byte, dest, tag int, opts []core.SendOption) *Request {
	h, req := c.mpi.sendRecord()
	core.IsendvInto(req, c.gate(dest), p, c.flowTag(tag), segs, 0, nil, opts...)
	return h
}

// checkSend validates the peer and the tag of a send.
func (c *Comm) checkSend(dest, tag int) error {
	if err := c.checkPeer(dest); err != nil {
		return err
	}
	return checkTag(tag)
}

// Irecv starts a nonblocking receive into buf from rank src. tag may be
// AnyTag.
func (c *Comm) Irecv(p *sim.Proc, buf []byte, src, tag int) *Request {
	want, mask, err := c.recvMatch(src, tag)
	if err != nil {
		return failedRequest(err)
	}
	h, req := c.mpi.recvRecord()
	core.IrecvMaskedInto(req, c.gate(src), p, want, mask, buf, 0, nil)
	return h
}

// recvMatch validates a receive's peer and tag and returns the engine
// tag pattern it matches: the whole communicator for AnyTag, one flow
// tag otherwise.
func (c *Comm) recvMatch(src, tag int) (want, mask core.Tag, err error) {
	if err := c.checkPeer(src); err != nil {
		return 0, 0, err
	}
	if tag == AnyTag {
		want, mask = c.tagSpace()
		return want, mask, nil
	}
	if err := checkTag(tag); err != nil {
		return 0, 0, err
	}
	return c.flowTag(tag), ^core.Tag(0), nil
}

// Send is the blocking form of Isend.
func (c *Comm) Send(p *sim.Proc, buf []byte, dest, tag int) error {
	if err := c.checkSend(dest, tag); err != nil {
		return err
	}
	return c.gate(dest).Send(p, c.flowTag(tag), buf)
}

// Recv is the blocking form of Irecv. Like WaitStatus, it populates the
// status even when the receive ends in an error.
func (c *Comm) Recv(p *sim.Proc, buf []byte, src, tag int) (Status, error) {
	want, mask, err := c.recvMatch(src, tag)
	if err != nil {
		return Status{Source: -1, Tag: -1}, err
	}
	n, matched, err := c.gate(src).RecvMasked(p, want, mask, buf)
	return Status{Source: src, Tag: userTag(matched), Count: n}, err
}

// Sendrecv exchanges messages with a peer without deadlocking: the
// receive is posted nonblocking, then the send completes, then the
// receive. Both peers are validated first, so a failed call posts
// nothing. The receive runs on a record of the MPI's list, which is
// freed once its status is read, so a warm exchange allocates nothing;
// a failed send leaves the posted receive its record.
func (c *Comm) Sendrecv(p *sim.Proc, sendBuf []byte, dest, sendTag int, recvBuf []byte, src, recvTag int) (Status, error) {
	if err := c.checkSend(dest, sendTag); err != nil {
		return Status{}, err
	}
	want, mask, err := c.recvMatch(src, recvTag)
	if err != nil {
		return Status{Source: -1, Tag: -1}, err
	}
	h, rr := c.mpi.recvRecord()
	core.IrecvMaskedInto(rr, c.gate(src), p, want, mask, recvBuf, 0, nil)
	if err := c.gate(dest).Send(p, c.flowTag(sendTag), sendBuf); err != nil {
		return Status{}, err
	}
	return h.WaitStatus(p)
}
