package sim

// eventQueue holds the pending callbacks of a World in (at, seq) order:
// earliest instant first, and within one instant in scheduling order, which
// keeps the simulation deterministic. Every submit overhead, NIC
// completion, delivery, timer and process wake-up is one (see wakeBit).
//
// Events are grouped by instant. A 1024-node ring replay pushes 134 144
// events, 94 208 of them for a future instant with up to 14 336 pending at
// once — but onto only 42 distinct instants, because its nodes run in
// lockstep, and 81 % of future pushes are for the instant of the previous
// one. A heap of one key per event held thousands of ties and sifted ~7
// levels per pop to order them by seq, which is only push order; a heap
// of one key per bucket of same-instant events makes 44 keys in that run.
//
// It is three structures over one slab of callbacks:
//
//   - A bucket is a FIFO of events due at one future instant, threaded
//     through the slab by eventSlot.next; its first slot keeps its last
//     in eventSlot.last.
//   - Buckets sit in a 4-ary min-heap of eventKeys, keyed by their instant
//     and the seq of their first event. A key holds no pointer — the
//     callbacks stay put in the slab — so the heap's backing array is
//     memory the collector never scans, and a sift level moves 24 plain
//     bytes with no write barrier. Sifts move a hole down (or up) and
//     write the displaced key once, instead of swapping.
//   - Events for the current instant are on a FIFO through the slab.
//
// A future push appends to one of the last openBuckets buckets opened if
// it is for the same instant — the newest is tried first — or opens a new
// bucket, which evicts the oldest from that set. A bucket that has left
// the set never takes another event, so when a second bucket opens for an
// instant that already has one, every event of the first precedes every
// event of the second, and (at, first seq) orders them. An entry of the
// set whose bucket has already fired has at <= now, so a future push
// (at > now) never matches it.
//
// The clock moves only when the current-instant FIFO is empty: pop then
// takes the heap top's instant and splices every bucket due then onto the
// FIFO, in heap order, which is seq order. No key at now is ever left in
// the heap.
//
// Both slices grow by doubling from minQueueCap: a world that reaches
// depth 16 384 allocates 18 slice backings, against 20 for the one
// []event append-grown heap this replaced.
type eventQueue struct {
	heap []eventKey
	slab []eventSlot
	// free and head/tail are lists through eventSlot.next: the unused
	// slots, and the current-instant FIFO.
	free       slotLink
	head, tail slotLink
	// open are the last buckets opened, open[newest] the latest; a uint32
	// newest packs beside the links (World stays 224 B).
	newest uint32
	open   [openBuckets]openBucket
}

// openBuckets is how many recently opened buckets a future push tries
// before opening another: 4 catches the ring's lockstep instants (44 keys
// made, against 43 for 8).
const openBuckets = 4

// openBucket is a recently opened bucket: its instant and first slot.
type openBucket struct {
	at    Time
	first slotLink
}

// eventKey is a bucket's place in the heap.
type eventKey struct {
	at   Time
	seq  uint64 // of the bucket's first event
	slot int32  // index of the bucket's first slot in the slab
}

// eventSlot holds one pending callback. next links the slot into its
// bucket or the FIFO while it is queued, and into the free list while it
// is unused. last is the bucket's last slot, kept in its first, or'ed
// with wakeBit in a process's wake-up, so a slot stays 16 bytes.
type eventSlot struct {
	fn         func()
	next, last slotLink
}

// slotLink is a slab index plus one, so 0 — the zero value — ends a list
// and a zero eventQueue is empty.
type slotLink int32

const wakeBit slotLink = -1 << 31 // the sign bit: no slab index reaches it

const minQueueCap = 64

func (a eventKey) before(b eventKey) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

func (q *eventQueue) empty() bool { return q.head == 0 && len(q.heap) == 0 }

// nextAt reports when the earliest event is due. The queue must not be
// empty.
func (q *eventQueue) nextAt(now Time) Time {
	if q.head != 0 {
		return now
	}
	return q.heap[0].at
}

// firesNext reports whether an event pushed now for at would be the next
// one popped: nothing is queued for the current instant and nothing in
// the heap is due by at (a bucket at exactly at has a lower seq, so it
// fires first).
func (q *eventQueue) firesNext(at Time) bool {
	return q.head == 0 && (len(q.heap) == 0 || q.heap[0].at > at)
}

// nextWake is the earliest event's slot if it resumes a process, else 0.
func (q *eventQueue) nextWake() slotLink {
	l := q.head
	if l == 0 {
		l = slotLink(q.heap[0].slot + 1)
	}
	return l & (q.slab[l-1].last >> 31) // all ones for a wake-up
}

// push queues fn (a wake-up if wake is wakeBit) at at and returns its
// slot: on the FIFO if at is not after now (an earlier at is clamped to
// now), else on an open or new bucket for at, its key sifted up the heap.
// The event, and a new bucket, are counted in wk.
func (q *eventQueue) push(now, at Time, seq uint64, fn func(), wake slotLink, wk *Work) slotLink {
	wk.add(cEvents, 1)
	if q.free == 0 {
		q.extend()
	}
	l := q.free
	s := &q.slab[l-1]
	q.free = s.next
	s.fn, s.next, s.last = fn, 0, wake
	if at <= now {
		q.enqueue(l, l)
		return l
	}
	// With the heap empty every open bucket has fired.
	if len(q.heap) != 0 {
		for i := range uint32(openBuckets) {
			if b := q.open[(q.newest-i)%openBuckets]; b.at == at {
				f := &q.slab[b.first-1]
				q.slab[f.last&^wakeBit-1].next = l
				f.last = f.last&wakeBit | l
				return l
			}
		}
	}
	s.last |= l
	wk.add(cBuckets, 1)
	q.newest = (q.newest + 1) % openBuckets
	q.open[q.newest] = openBucket{at: at, first: l}
	h := q.heap
	if len(h) == cap(h) {
		h = grow(h)
	}
	h = h[:len(h)+1]
	k := eventKey{at: at, seq: seq, slot: int32(l - 1)}
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !k.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = k
	q.heap = h
	return l
}

// pop removes the earliest event and returns its time and callback. The
// queue must not be empty.
func (q *eventQueue) pop(now Time) (Time, func()) {
	l := q.head
	if l == 0 {
		// Move to the next instant: every bucket due then joins the FIFO.
		k := q.popKey()
		now, l = k.at, slotLink(k.slot+1)
		q.tail = q.slab[l-1].last &^ wakeBit
		for len(q.heap) != 0 && q.heap[0].at == now {
			first := slotLink(q.popKey().slot + 1)
			q.enqueue(first, q.slab[first-1].last&^wakeBit)
		}
	}
	q.head = q.slab[l-1].next
	if q.head == 0 {
		q.tail = 0
	}
	return now, q.release(l)
}

// enqueue appends the list of slots from first to last to the FIFO.
func (q *eventQueue) enqueue(first, last slotLink) {
	if q.tail != 0 {
		q.slab[q.tail-1].next = first
	} else {
		q.head = first
	}
	q.tail = last
}

// popKey removes the heap's top key and returns it. The heap must not be
// empty.
func (q *eventQueue) popKey() eventKey {
	h := q.heap
	top, n := h[0], len(h)-1
	if n > 0 {
		siftDown(h[:n], h[n])
	}
	q.heap = h[:n]
	return top
}

// siftDown moves the hole at the root of the non-empty heap h down to
// where k belongs and writes k there. It is kept apart from popKey so
// that popping the last key, a shallow queue's every pop, inlines.
func siftDown(h []eventKey, k eventKey) {
	n := len(h)
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < min(c+4, n); j++ {
			if h[j].before(h[m]) {
				m = j
			}
		}
		if !h[m].before(k) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = k
}

// extend puts a new slot on the empty free list.
func (q *eventQueue) extend() {
	if len(q.slab) == cap(q.slab) {
		q.slab = grow(q.slab)
	}
	q.slab = q.slab[:len(q.slab)+1]
	q.free = slotLink(len(q.slab))
}

// release frees the slot at l and returns the callback it held.
func (q *eventQueue) release(l slotLink) func() {
	s := &q.slab[l-1]
	fn := s.fn
	*s = eventSlot{next: q.free} // drop the callback for the collector
	q.free = l
	return fn
}

// grow returns a copy of the full slice s with twice its capacity. It is
// kept out of line: the copy is rare and would bloat push.
//
//go:noinline
func grow[T any](s []T) []T {
	g := make([]T, len(s), max(2*cap(s), minQueueCap))
	copy(g, s)
	return g
}
