package simnet

import "math/bits"

// Frame is the one representation of bytes held in flight below the
// engine: a contiguous, reference-counted buffer that is filled once and
// is read-only from then on. Eager bytes are copied into one — the single
// host copy they see between the sender's memory and the receiver's — and
// so are RDMA bytes that must outlive the sender's buffer (a retained body
// chunk, a software-gather bounce); an RDMA transaction otherwise makes no
// frame at all (see TxRdma). Whoever needs the bytes to outlive the call
// that showed them holds a reference: a queued transaction, each scheduled
// eager delivery, and above the NIC a sender that may transmit the frame
// again or a receiver that parked a slice of it. The last Release returns
// the frame, header and bytes together, to the free list it was drawn from.
type Frame struct {
	buf  []byte
	refs int
	list *FrameList // nil: the frame belongs to no free list
	next *Frame     // free-list link while released
}

// Bytes returns the frame's contents. Callers must not write through the
// slice, nor keep it past their own reference.
func (f *Frame) Bytes() []byte { return f.buf }

// Retain adds one reference.
func (f *Frame) Retain() {
	if f.refs <= 0 {
		panic("simnet: retain of a released frame")
	}
	f.refs++
}

// Release drops one reference; the last one recycles the frame.
func (f *Frame) Release() {
	if f.refs <= 0 {
		panic("simnet: release of a released frame")
	}
	f.refs--
	if f.refs == 0 && f.list != nil {
		head := &f.list.free[bits.Len(uint(cap(f.buf)))]
		f.next, *head = *head, f
	}
}

// FrameList is a fabric's free list of frames: unsynchronized and linked
// through the frames themselves rather than a sync.Pool, for the reasons
// given in core/pool.go — a World is single-threaded, and the collector's
// timing must never reach the deterministic packages — and so that the
// list allocates nothing of its own. Frames are filed by the magnitude of
// their capacity (class c holds capacities in [2^(c-1), 2^c)) but
// allocated at exactly the size asked for, so a miss costs what the plain
// make it replaces did and equal-sized traffic still hits every time.
//
// A nil *FrameList is valid and makes frames that are never recycled.
type FrameList struct {
	free [bits.UintSize]*Frame // per class, most recently released first
}

// frameScan bounds how many of a class's most recently released frames
// New inspects for one large enough, keeping it O(1) however long the
// list.
const frameScan = 8

// New flattens a gather list into a frame holding one reference, the
// caller's. The segments are copied before New returns.
func (l *FrameList) New(segs [][]byte) *Frame {
	size := 0
	for _, s := range segs {
		size += len(s)
	}
	f := l.take(size)
	buf := f.buf[:0]
	for _, s := range segs {
		buf = append(buf, s...)
	}
	f.buf = buf
	return f
}

// take returns a frame of capacity >= size: a recycled one when the
// size's class has a fit near the front, a fresh one otherwise.
func (l *FrameList) take(size int) *Frame {
	if l != nil {
		link := &l.free[bits.Len(uint(size))]
		for i := 0; *link != nil && i < frameScan; i++ {
			f := *link
			if cap(f.buf) >= size {
				*link, f.next = f.next, nil
				f.refs = 1
				return f
			}
			link = &f.next
		}
	}
	return &Frame{buf: make([]byte, 0, size), refs: 1, list: l}
}
