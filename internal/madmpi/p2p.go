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
	if err := c.checkPeer(dest); err != nil {
		return failedRequest(err)
	}
	if err := checkTag(tag); err != nil {
		return failedRequest(err)
	}
	req := c.gate(dest).Isend(p, c.flowTag(tag), buf, opts...)
	return &Request{Request: req}
}

// Irecv starts a nonblocking receive into buf from rank src. tag may be
// AnyTag.
func (c *Comm) Irecv(p *sim.Proc, buf []byte, src, tag int) *Request {
	if err := c.checkPeer(src); err != nil {
		return failedRequest(err)
	}
	var req *core.RecvRequest
	if tag == AnyTag {
		want, mask := c.tagSpace()
		req = c.gate(src).IrecvMasked(p, want, mask, buf)
	} else {
		if err := checkTag(tag); err != nil {
			return failedRequest(err)
		}
		req = c.gate(src).Irecv(p, c.flowTag(tag), buf)
	}
	return &Request{Request: req, recv: req}
}

// Send is the blocking form of Isend.
func (c *Comm) Send(p *sim.Proc, buf []byte, dest, tag int) error {
	return c.Isend(p, buf, dest, tag).Wait(p)
}

// Recv is the blocking form of Irecv.
func (c *Comm) Recv(p *sim.Proc, buf []byte, src, tag int) (Status, error) {
	return c.Irecv(p, buf, src, tag).WaitStatus(p)
}

// Sendrecv exchanges messages with a peer without deadlocking: both
// directions are posted nonblocking, then completed.
func (c *Comm) Sendrecv(p *sim.Proc, sendBuf []byte, dest, sendTag int, recvBuf []byte, src, recvTag int) (Status, error) {
	rr := c.Irecv(p, recvBuf, src, recvTag)
	sr := c.Isend(p, sendBuf, dest, sendTag)
	if err := sr.Wait(p); err != nil {
		return Status{}, err
	}
	return rr.WaitStatus(p)
}

// IsendPriority is a MAD-MPI extension exposing the engine's priority
// flag (the RPC service-id pattern): the message is scheduled ahead of
// accumulated bulk data.
func (c *Comm) IsendPriority(p *sim.Proc, buf []byte, dest, tag int) *Request {
	return c.Isend(p, buf, dest, tag, core.Priority())
}
