package sim

// eventQueue holds the pending callbacks of a World in (at, seq) order:
// earliest instant first, and within one instant in scheduling order, which
// keeps the simulation deterministic. Every submit overhead, NIC
// completion, delivery, timer and process wake-up is one of its events; a
// 1024-node ring replay pushes 134 144 of them with at most 14 336 pending
// at once, 30 % of them for the current instant.
//
// It is two structures over one slab of callbacks:
//
//   - Future events (at > now) sit in a 4-ary min-heap of eventKeys. A key
//     holds no pointer — its callback stays put in the slab — so the heap's
//     backing array is memory the collector never scans, and a sift level
//     moves 24 plain bytes with no write barrier. Sifts move a hole down
//     (or up) and write the displaced key once, instead of swapping.
//   - Events for the current instant skip the heap: they are appended to a
//     FIFO threaded through the slab, which is seq order.
//
// The clock only advances by popping a heap key, and pop takes the FIFO
// head unless the heap top is also at now, so time advances only once the
// FIFO is empty. A heap key at now was pushed while the clock was still
// earlier, so its seq is below every FIFO entry's: heap-first at now is
// (at, seq) order.
//
// Both slices grow by doubling from minQueueCap: a world that reaches
// depth 16 384 allocates 18 slice backings, against 20 for the one
// []event append-grown heap this replaced.
type eventQueue struct {
	heap []eventKey
	slab []eventSlot
	// free and head/tail are lists through eventSlot.next: the unused
	// slots, and the same-instant FIFO.
	free       slotLink
	head, tail slotLink
}

// eventKey is a future event's place in the heap.
type eventKey struct {
	at   Time
	seq  uint64
	slot int32 // index of the callback in the slab
}

// eventSlot holds one pending callback. next links the slot into the FIFO
// while it is queued there, and into the free list while it is unused.
type eventSlot struct {
	fn   func()
	next slotLink
}

// slotLink is a slab index plus one, so 0 — the zero value — ends a list
// and a zero eventQueue is empty.
type slotLink int32

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
// the heap is due by at (a key at exactly at has a lower seq, so it fires
// first).
func (q *eventQueue) firesNext(at Time) bool {
	return q.head == 0 && (len(q.heap) == 0 || q.heap[0].at > at)
}

// push queues fn to run at at: on the FIFO if at is not after now (an
// earlier at is clamped to now), else in the heap, its key sifted up.
func (q *eventQueue) push(now, at Time, seq uint64, fn func()) {
	if q.free == 0 {
		q.extend()
	}
	l := q.free
	s := &q.slab[l-1]
	q.free = s.next
	s.fn, s.next = fn, 0
	if at <= now {
		if q.tail != 0 {
			q.slab[q.tail-1].next = l
		} else {
			q.head = l
		}
		q.tail = l
		return
	}
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
}

// pop removes the earliest event and returns its time and callback. The
// queue must not be empty.
func (q *eventQueue) pop(now Time) (Time, func()) {
	if q.head != 0 && (len(q.heap) == 0 || q.heap[0].at != now) {
		l := q.head
		q.head = q.slab[l-1].next
		if q.head == 0 {
			q.tail = 0
		}
		return now, q.release(l)
	}
	h := q.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	q.heap = h
	// Sift the hole left at the root down to where last belongs.
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
		if !h[m].before(last) {
			break
		}
		h[i] = h[m]
		i = m
	}
	if i < n {
		h[i] = last
	}
	return top.at, q.release(slotLink(top.slot + 1))
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
