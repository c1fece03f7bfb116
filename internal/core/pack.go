package core

import "nmad/internal/sim"

// The Madeleine-style incremental interface (paper §3.4): "a
// NewMadeleine message is made of several pieces of data, located
// anywhere in user-space. The message is initiated and finalized with a
// synchronization barrier call." Every packed piece is an independent
// wrapper sharing the message's flow tag, so the optimizer is free to
// aggregate, reorder or split them.

// Message is an outgoing message under construction. Its request rides
// inside it, so a packed message is one allocation.
type Message struct {
	g     *Gate
	tag   Tag
	cfg   sendConfig
	req   SendRequest
	ended bool
}

// BeginPack starts a message on the given flow. Options apply to every
// packed piece.
func (g *Gate) BeginPack(p *sim.Proc, tag Tag, opts ...SendOption) *Message {
	m := &Message{g: g, tag: tag, cfg: resolveSend(opts)}
	m.req.tag = tag
	m.req.add(1) // construction hold, released by End
	return m
}

// Pack appends one piece of data to the message. The piece may start
// traveling immediately; the engine decides.
func (m *Message) Pack(p *sim.Proc, data []byte) {
	m.pack(p, data, m.cfg.flags)
}

// PackPriority appends a piece flagged for earliest delivery (the RPC
// service-id pattern of the paper's §2).
func (m *Message) PackPriority(p *sim.Proc, data []byte) {
	m.pack(p, data, m.cfg.flags|flagPriority)
}

func (m *Message) pack(p *sim.Proc, data []byte, flags flags) {
	if m.ended {
		panic("core: Pack after End")
	}
	// Pack has no ack machinery (End's barrier already synchronizes), so
	// the flag must not reach the wire: the receiver would ack aux 0 and
	// the sender would count a protocol error for every piece.
	flags &^= flagNeedAck
	g, e := m.g, m.g.eng
	if err := g.sendCheck(m.cfg); err != nil {
		// As for Isend: nothing is submitted, and the message's request —
		// what End waits on — completes with the error.
		m.req.complete(err)
		return
	}
	// Pack pieces record as independent sends: each submits an identical
	// wrapper.
	iov := singleIov(data)
	e.recordSend(g, m.tag, iov, sendConfig{flags: flags, driver: m.cfg.driver})
	e.chargeSubmit(p)
	m.req.add(1)
	m.req.bytes += len(data)
	e.submit(e.newPacket(g, header{
		kind: kindData, flags: flags, tag: m.tag, seq: g.seqFor(m.tag, flags), length: uint32(len(data)),
	}, m.cfg.driver, iov, &m.req))
}

// End finalizes the message and blocks until every piece has left the
// node (the synchronization barrier of the Madeleine interface).
func (m *Message) End(p *sim.Proc) error {
	if m.ended {
		panic("core: double End")
	}
	m.ended = true
	m.req.doneOne() // release the construction hold
	return m.req.Wait(p)
}

// Request exposes the underlying send request (for Test-style polling
// between Pack calls).
func (m *Message) Request() *SendRequest { return &m.req }

// InMessage is an incoming message being unpacked. Its first piece's
// request rides inside it, as a Message's does, and reqs starts on a
// one-entry backing of its own, so a one-piece message is one
// allocation.
type InMessage struct {
	g     *Gate
	tag   Tag
	first RecvRequest
	reqs  []*RecvRequest
	one   [1]*RecvRequest
	ended bool
}

// BeginUnpack starts receiving a message on the given flow.
func (g *Gate) BeginUnpack(p *sim.Proc, tag Tag) *InMessage {
	m := &InMessage{g: g, tag: tag}
	m.reqs = m.one[:0]
	return m
}

// Unpack posts the receive for the next piece of the message into buf.
// Pieces arrive in Pack order (per-flow sequence ordering), whatever the
// optimizer did to them in transit.
func (m *InMessage) Unpack(p *sim.Proc, buf []byte) *RecvRequest {
	if m.ended {
		panic("core: Unpack after End")
	}
	var r *RecvRequest
	if len(m.reqs) == 0 {
		r = &m.first
		IrecvMaskedInto(r, m.g, p, m.tag, ^Tag(0), buf, 0, nil)
	} else {
		r = m.g.Irecv(p, m.tag, buf)
	}
	m.reqs = append(m.reqs, r)
	return r
}

// End blocks until every unpacked piece has landed and returns the first
// error, if any.
func (m *InMessage) End(p *sim.Proc) error {
	if m.ended {
		panic("core: double End")
	}
	m.ended = true
	var first error
	for _, r := range m.reqs {
		if err := r.Wait(p); err != nil && first == nil {
			first = err
		}
	}
	return first
}
