package madmpi

import (
	"nmad/internal/core"
	"nmad/internal/sim"
)

// Extended point-to-point operations: synchronous sends and probing.

// Issend starts a synchronous-mode send (MPI_Issend): the request
// completes only once the receive has been matched on the other side.
// Above the rendezvous threshold this costs nothing extra (the handshake
// implies the match); below it the receiver returns an ack control entry
// that aggregates with its outbound traffic.
func (c *Comm) Issend(p *sim.Proc, buf []byte, dest, tag int) *Request {
	return c.Isend(p, buf, dest, tag, core.Synchronous())
}

// Ssend is the blocking form of Issend (MPI_Ssend).
func (c *Comm) Ssend(p *sim.Proc, buf []byte, dest, tag int) error {
	if err := c.checkSend(dest, tag); err != nil {
		return err
	}
	return c.gate(dest).Ssend(p, c.flowTag(tag), buf)
}

// Iprobe reports, without blocking or consuming, whether a message from
// src matching tag (AnyTag allowed) is waiting. On a hit the returned
// Status carries the source, the matched tag and the payload size
// (MPI_Get_count on MPI_BYTE).
func (c *Comm) Iprobe(p *sim.Proc, src, tag int) (bool, Status, error) {
	if err := c.checkPeer(src); err != nil {
		return false, Status{}, err
	}
	want, mask := c.probePattern(tag)
	ok, matched, size := c.gate(src).Probe(want, mask)
	if !ok {
		return false, Status{}, nil
	}
	return true, Status{Source: src, Tag: userTag(matched), Count: size}, nil
}

// Probe blocks until a matching message is waiting (MPI_Probe).
func (c *Comm) Probe(p *sim.Proc, src, tag int) (Status, error) {
	if err := c.checkPeer(src); err != nil {
		return Status{}, err
	}
	want, mask := c.probePattern(tag)
	matched, size := c.gate(src).ProbeWait(p, want, mask)
	return Status{Source: src, Tag: userTag(matched), Count: size}, nil
}

func (c *Comm) probePattern(tag int) (core.Tag, core.Tag) {
	if tag == AnyTag {
		return c.tagSpace()
	}
	return c.flowTag(tag), ^core.Tag(0)
}
