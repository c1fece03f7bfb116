package simnet

import (
	"math/bits"

	"nmad/internal/sim"
)

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
	list *FrameList // the free list the frame returns to
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
	if f.refs == 0 {
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
// A size whose own class has no fit is served from the smallest
// non-empty larger class, whose every frame fits: traffic whose sizes
// rise wave by wave (a ring replay's nodes make frames of 2 072, 9 504,
// 6 296, 24 and 1 048 bytes in turn, two in flight) reuses the larger
// frames it has already made instead of making one per size.
type FrameList struct {
	free  [bits.UintSize]*Frame // per class, most recently released first
	world *sim.World            // where frames made, reused and filled are counted
}

var (
	cFramesMade   = sim.Counter("simnet.frames_made")
	cFramesReused = sim.Counter("simnet.frames_reused")
	cBytesCopied  = sim.Counter("simnet.bytes_copied") // into frames, and placed by DMA reads
)

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
	l.count(cBytesCopied, size)
	buf := f.buf[:0]
	for _, s := range segs {
		buf = append(buf, s...)
	}
	f.buf = buf
	return f
}

// take returns a frame of capacity >= size: a recycled one when the
// size's class has a fit near the front, else as miss does.
func (l *FrameList) take(size int) *Frame {
	link := &l.free[bits.Len(uint(size))]
	for i := 0; *link != nil && i < frameScan; i++ {
		if cap((*link).buf) >= size {
			return l.reuse(link)
		}
		link = &(*link).next
	}
	return l.miss(size)
}

// miss serves a size whose class has no fit: from the smallest non-empty
// larger class, or a fresh frame. It is kept apart so that take inlines.
func (l *FrameList) miss(size int) *Frame {
	for c := bits.Len(uint(size)) + 1; c < len(l.free); c++ {
		if l.free[c] != nil {
			return l.reuse(&l.free[c])
		}
	}
	l.count(cFramesMade, 1)
	return &Frame{buf: make([]byte, 0, size), refs: 1, list: l}
}

// reuse unlinks the frame *link points at and hands it out with one
// reference.
func (l *FrameList) reuse(link **Frame) *Frame {
	f := *link
	*link, f.next = f.next, nil
	f.refs = 1
	l.count(cFramesReused, 1)
	return f
}

// count adds n to counter c of the list's world, if it has one.
func (l *FrameList) count(c sim.CounterID, n int) {
	if l.world != nil {
		l.world.Add(c, n)
	}
}
