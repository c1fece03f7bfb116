package baseline

import (
	"nmad/internal/sim"
)

// Derived-datatype transfers, the §5.3 comparison path. Both baselines
// serialize the non-contiguous layout through contiguous staging buffers;
// the host memcpy is charged at the node's memcpy bandwidth. "In order to
// process a derived datatype communication request, MPICH copies all the
// data fragments into a new contiguous buffer and sends the obtained
// buffer in an unique transaction ... Data are received in a temporary
// memory area before being dispatched to their final destination."

// Segment is one contiguous block of a flattened datatype (offset
// relative to the message base).
type Segment struct {
	Offset int
	Len    int
}

func totalLen(segs []Segment) int {
	n := 0
	for _, s := range segs {
		n += s.Len
	}
	return n
}

// SendTyped sends the blocks described by segs at base.
//
// MPICH personality: pack everything (one full-size memcpy), then one
// transaction. OpenMPI personality: pack and send in PackChunk pieces so
// the copy overlaps the wire.
func (r *Rank) SendTyped(p *sim.Proc, base []byte, segs []Segment, dest, tag, comm int) error {
	total := totalLen(segs)
	if !r.opts.PipelinedDatatypes || r.opts.PackChunk <= 0 || total <= r.opts.PackChunk {
		packed := packInto(make([]byte, 0, total), base, segs)
		p.Sleep(r.node.CopyCost(total)) // the pack memcpy
		return r.Send(p, packed, dest, tag, comm)
	}
	// Pipelined: pack chunk k while chunk k-1 is on the wire.
	packed := packInto(make([]byte, 0, total), base, segs)
	var reqs []*bSend
	seq := 0
	for off := 0; off < total; off += r.opts.PackChunk {
		end := off + r.opts.PackChunk
		if end > total {
			end = total
		}
		p.Sleep(r.node.CopyCost(end - off)) // pack this chunk
		reqs = append(reqs, r.Isend(p, packed[off:end], dest, tag+seq, comm))
		seq++
	}
	for _, req := range reqs {
		if err := req.Wait(p); err != nil {
			return err
		}
	}
	return nil
}

// RecvTyped receives into the blocks described by segs at base, through a
// temporary contiguous area, then dispatches (one full-size memcpy).
func (r *Rank) RecvTyped(p *sim.Proc, base []byte, segs []Segment, src, tag, comm int) error {
	total := totalLen(segs)
	tmp := make([]byte, total)
	if !r.opts.PipelinedDatatypes || r.opts.PackChunk <= 0 || total <= r.opts.PackChunk {
		if _, err := r.recv(p, tmp, src, tag, comm); err != nil {
			return err
		}
	} else {
		var reqs []*bRecv
		seq := 0
		for off := 0; off < total; off += r.opts.PackChunk {
			end := off + r.opts.PackChunk
			if end > total {
				end = total
			}
			reqs = append(reqs, r.Irecv(p, tmp[off:end], src, tag+seq, comm))
			seq++
		}
		for _, req := range reqs {
			if err := req.Wait(p); err != nil {
				return err
			}
		}
	}
	p.Sleep(r.node.CopyCost(total)) // the dispatch memcpy
	unpackFrom(tmp, base, segs)
	return nil
}

func packInto(dst, base []byte, segs []Segment) []byte {
	for _, s := range segs {
		dst = append(dst, base[s.Offset:s.Offset+s.Len]...)
	}
	return dst
}

func unpackFrom(tmp, base []byte, segs []Segment) {
	n := 0
	for _, s := range segs {
		n += copy(base[s.Offset:s.Offset+s.Len], tmp[n:])
	}
}
