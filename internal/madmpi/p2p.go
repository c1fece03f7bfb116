package madmpi

import (
	"nmad/internal/core"
	"nmad/internal/sim"
)

// Point-to-point operations. The four nonblocking primitives (Isend,
// Irecv, Wait, Test) are direct mappings onto the engine, per §3.4 of the
// paper; the blocking forms are conveniences layered on them.

// Isend starts a nonblocking send of buf to rank dest with the given
// tag. Engine send options (core.Priority, core.OnRail, ...) pass
// through as MAD-MPI extensions.
func (c *Comm) Isend(p *sim.Proc, buf []byte, dest, tag int, opts ...core.SendOption) *Request {
	if err := c.checkSend(dest, tag); err != nil {
		return failedRequest(err)
	}
	return c.postSend(p, [][]byte{buf}, dest, tag, opts)
}

// postSend posts a validated send into a new sendOp and returns its
// handle.
func (c *Comm) postSend(p *sim.Proc, segs [][]byte, dest, tag int, opts []core.SendOption) *Request {
	op := new(sendOp)
	op.Request.Request = &op.s
	core.IsendvInto(&op.s, c.gate(dest), p, c.flowTag(tag), segs, opts...)
	return &op.Request
}

// isend validates and posts a send for the blocking forms, which wait on
// the engine request and never need a handle.
func (c *Comm) isend(p *sim.Proc, buf []byte, dest, tag int) (*core.SendRequest, error) {
	if err := c.checkSend(dest, tag); err != nil {
		return nil, err
	}
	return c.gate(dest).Isend(p, c.flowTag(tag), buf), nil
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
	op := newRecvOp()
	core.IrecvMaskedInto(&op.r, c.gate(src), p, want, mask, buf)
	return &op.Request
}

// irecv is isend's receive twin.
func (c *Comm) irecv(p *sim.Proc, buf []byte, src, tag int) (*core.RecvRequest, error) {
	want, mask, err := c.recvMatch(src, tag)
	if err != nil {
		return nil, err
	}
	return c.gate(src).IrecvMasked(p, want, mask, buf), nil
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
	req, err := c.isend(p, buf, dest, tag)
	if err != nil {
		return err
	}
	return req.Wait(p)
}

// Recv is the blocking form of Irecv.
func (c *Comm) Recv(p *sim.Proc, buf []byte, src, tag int) (Status, error) {
	req, err := c.irecv(p, buf, src, tag)
	return waitRecv(p, req, err)
}

// waitRecv completes a receive irecv posted (or failed to: err) and
// reports its status, populated even when the receive ends in an error.
func waitRecv(p *sim.Proc, req *core.RecvRequest, err error) (Status, error) {
	if err != nil {
		return Status{Source: -1, Tag: -1}, err
	}
	err = req.Wait(p)
	return recvStatus(req), err
}

// Sendrecv exchanges messages with a peer without deadlocking: both
// directions are posted nonblocking, then completed.
func (c *Comm) Sendrecv(p *sim.Proc, sendBuf []byte, dest, sendTag int, recvBuf []byte, src, recvTag int) (Status, error) {
	rr, rerr := c.irecv(p, recvBuf, src, recvTag)
	sr, err := c.isend(p, sendBuf, dest, sendTag)
	if err == nil {
		err = sr.Wait(p)
	}
	if err != nil {
		return Status{}, err
	}
	return waitRecv(p, rr, rerr)
}
