package baseline

import (
	"encoding/binary"
	"errors"
	"fmt"

	"nmad/internal/drivers"
	"nmad/internal/sim"
	"nmad/internal/simnet"
)

// Rank is one process of a baseline MPI job. Unlike the engine, it binds
// a single network (the paper's comparators are single-rail builds:
// MPICH-MX, MPICH-Quadrics).
type Rank struct {
	world *sim.World
	node  *simnet.Node
	drv   drivers.Driver
	size  int
	opts  Options

	// Matching state, per source node.
	posted     map[simnet.NodeID][]*bRecv
	unexpected map[simnet.NodeID][]*bMsg

	rdvOut    map[uint32]*bRdvOut
	rdvIn     map[bRdvKey]*bRecv
	nextRdvID uint32
}

// bMsg is one arrival being matched. payload is a slice of the wire
// frame; a message buffered as unexpected holds a reference to it.
type bMsg struct {
	kind    byte
	tag     uint64
	payload []byte
	frame   *simnet.Frame
	size    int    // body size for RTS
	aux     uint32 // rdv id
}

// bRecv is a posted receive.
type bRecv struct {
	bReq
	tag uint64
	buf []byte
	n   int
}

// bRdvOut is sender-side rendezvous state.
type bRdvOut struct {
	body []byte
	dst  simnet.NodeID
	req  *bSend
}

type bRdvKey struct {
	src simnet.NodeID
	id  uint32
}

// bSend is a send handle.
type bSend struct{ bReq }

// bReq is the completion state of a handle. It knows the one process
// waiting on it and unparks that process when it finishes.
type bReq struct {
	waiter *sim.Proc
	done   bool
	err    error
}

// Baseline wire format: kind(1) pad(3) tag(8) len(4) aux(4) = 20 bytes.
const bHeaderSize = 20

const (
	bKindMsg byte = 1 + iota
	bKindRTS
	bKindCTS
)

// NewRank creates one baseline process over network netIdx of the fabric.
func NewRank(f *simnet.Fabric, netIdx int, node simnet.NodeID, opts Options) (*Rank, error) {
	nets := f.Networks()
	if netIdx < 0 || netIdx >= len(nets) {
		return nil, fmt.Errorf("baseline: fabric has no network %d", netIdx)
	}
	drv, err := drivers.New(nets[netIdx], node)
	if err != nil {
		return nil, err
	}
	r := &Rank{
		world:      f.World(),
		node:       f.Node(node),
		drv:        drv,
		size:       f.Nodes(),
		opts:       opts,
		posted:     make(map[simnet.NodeID][]*bRecv),
		unexpected: make(map[simnet.NodeID][]*bMsg),
		rdvOut:     make(map[uint32]*bRdvOut),
		rdvIn:      make(map[bRdvKey]*bRecv),
	}
	if err := drv.Open(r.onRecv, nil); err != nil {
		return nil, err
	}
	return r, nil
}

// Name reports the personality name.
func (r *Rank) Name() string { return r.opts.Name }

// rank returns the process's rank (its node id).
func (r *Rank) rank() int { return int(r.node.ID) }

// Size returns the job size.
func (r *Rank) Size() int { return r.size }

func (r *Rank) threshold() int {
	if r.opts.RdvThreshold > 0 {
		return r.opts.RdvThreshold
	}
	return r.drv.Caps().RdvThreshold
}

func (r *Rank) charge(p *sim.Proc) {
	if p != nil && r.opts.SubmitOverhead > 0 {
		p.Sleep(r.opts.SubmitOverhead)
	}
}

func tag64(comm, tag int) uint64 { return uint64(uint32(comm))<<32 | uint64(uint32(tag)) }

func encodeBHeader(kind byte, tag uint64, length int, aux uint32) []byte {
	h := make([]byte, bHeaderSize)
	h[0] = kind
	binary.LittleEndian.PutUint64(h[4:12], tag)
	binary.LittleEndian.PutUint32(h[12:16], uint32(length))
	binary.LittleEndian.PutUint32(h[16:20], aux)
	return h
}

// Errors.
var (
	errTruncated = errors.New("baseline: message longer than the receive buffer")
	errBadPeer   = errors.New("baseline: peer out of range")
)

// Isend maps the send directly onto the NIC: eager below the threshold,
// rendezvous above — the synchronous architecture of §2.
func (r *Rank) Isend(p *sim.Proc, buf []byte, dest, tag, comm int) *bSend {
	req := &bSend{}
	if dest < 0 || dest >= r.size || dest == r.rank() {
		req.finish(fmt.Errorf("%w: %d", errBadPeer, dest))
		return req
	}
	r.charge(p)
	t := tag64(comm, tag)
	if len(buf) >= r.threshold() {
		r.nextRdvID++
		id := r.nextRdvID
		r.rdvOut[id] = &bRdvOut{body: buf, dst: simnet.NodeID(dest), req: req}
		hdr := encodeBHeader(bKindRTS, t, len(buf), id)
		if err := r.drv.Send(simnet.NodeID(dest), simnet.TxEager, [][]byte{hdr}, 0, nil); err != nil {
			req.finish(err)
		}
		return req
	}
	hdr := encodeBHeader(bKindMsg, t, len(buf), 0)
	segs := [][]byte{hdr}
	if len(buf) > 0 {
		segs = append(segs, buf)
	}
	err := r.drv.Send(simnet.NodeID(dest), simnet.TxEager, segs, 0, func() { req.finish(nil) })
	if err != nil {
		req.finish(err)
	}
	return req
}

// Irecv posts a receive matched by (source, comm, tag), FIFO.
func (r *Rank) Irecv(p *sim.Proc, buf []byte, src, tag, comm int) *bRecv {
	req := &bRecv{tag: tag64(comm, tag), buf: buf}
	if src < 0 || src >= r.size || src == r.rank() {
		req.finish(fmt.Errorf("%w: %d", errBadPeer, src))
		return req
	}
	r.charge(p)
	node := simnet.NodeID(src)
	q := r.unexpected[node]
	for i, m := range q {
		if m.tag == req.tag {
			r.unexpected[node] = append(q[:i], q[i+1:]...)
			r.consume(node, req, m)
			m.frame.Release() // consume copied the payload out
			return req
		}
	}
	r.posted[node] = append(r.posted[node], req)
	return req
}

// Send and recv are the blocking forms.
func (r *Rank) Send(p *sim.Proc, buf []byte, dest, tag, comm int) error {
	return r.Isend(p, buf, dest, tag, comm).Wait(p)
}

func (r *Rank) recv(p *sim.Proc, buf []byte, src, tag, comm int) (int, error) {
	req := r.Irecv(p, buf, src, tag, comm)
	err := req.Wait(p)
	return req.N(), err
}

// onRecv is the driver delivery handler.
func (r *Rank) onRecv(d simnet.Delivery) {
	if d.Kind == simnet.TxRdma {
		r.onBody(d)
		return
	}
	if len(d.Data) < bHeaderSize {
		panic("baseline: runt packet")
	}
	kind := d.Data[0]
	tag := binary.LittleEndian.Uint64(d.Data[4:12])
	length := int(binary.LittleEndian.Uint32(d.Data[12:16]))
	aux := binary.LittleEndian.Uint32(d.Data[16:20])
	payload := d.Data[bHeaderSize:]

	switch kind {
	case bKindCTS:
		out, ok := r.rdvOut[aux]
		if !ok {
			panic("baseline: CTS for unknown rendezvous")
		}
		delete(r.rdvOut, aux)
		req := out.req
		err := r.drv.Send(out.dst, simnet.TxRdma, [][]byte{out.body}, uint64(aux), func() { req.finish(nil) })
		if err != nil {
			req.finish(err)
		}
	case bKindMsg, bKindRTS:
		m := &bMsg{kind: kind, tag: tag, payload: payload, frame: d.Frame, size: length, aux: aux}
		q := r.posted[d.Src]
		for i, req := range q {
			if req.tag == tag {
				r.posted[d.Src] = append(q[:i], q[i+1:]...)
				r.consume(d.Src, req, m)
				return
			}
		}
		d.Frame.Retain() // the payload outlives this handler
		r.unexpected[d.Src] = append(r.unexpected[d.Src], m)
	default:
		panic("baseline: unknown packet kind")
	}
}

// consume completes the match: eager copy, or rendezvous grant.
func (r *Rank) consume(src simnet.NodeID, req *bRecv, m *bMsg) {
	switch m.kind {
	case bKindMsg:
		n := copy(req.buf, m.payload)
		req.n = n
		var err error
		if len(m.payload) > len(req.buf) {
			err = errTruncated
		}
		r.world.After(r.node.CopyCost(n), func() { req.finish(err) })
	case bKindRTS:
		r.rdvIn[bRdvKey{src: src, id: m.aux}] = req
		cts := encodeBHeader(bKindCTS, m.tag, m.size, m.aux)
		if err := r.drv.Send(src, simnet.TxEager, [][]byte{cts}, 0, nil); err != nil {
			req.finish(err)
		}
	}
}

// onBody places a rendezvous body (single transaction in the baselines).
func (r *Rank) onBody(d simnet.Delivery) {
	key := bRdvKey{src: d.Src, id: uint32(d.Aux)}
	req, ok := r.rdvIn[key]
	if !ok {
		panic("baseline: body for unknown rendezvous")
	}
	delete(r.rdvIn, key)
	n := copy(req.buf, d.Data)
	req.n = n
	var err error
	if len(d.Data) > len(req.buf) {
		err = errTruncated
	}
	req.finish(err)
}

// Request completion plumbing.

func (q *bReq) finish(err error) {
	if q.done {
		return
	}
	q.done = true
	q.err = err
	q.waiter.Unpark()
}

// Wait parks p until the request finishes. One process waits on a
// handle at a time: a later waiter replaces an earlier.
func (q *bReq) Wait(p *sim.Proc) error {
	for !q.done {
		q.waiter = p
		p.Park()
	}
	return q.err
}

func (q *bRecv) N() int { return q.n }
