package core

import "nmad/internal/sim"

// anyDriver targets the common submission list: the engine balances the
// wrapper onto whichever rail idles first (paper §3.3: "the collected
// pieces of data are inserted ... on the common list for automatized
// load-balancing among all the NICs").
const anyDriver = -1

// packet is a packet wrapper ("pw" in NewMadeleine): one piece of
// application data plus the metadata the receiving side needs. Packet
// wrappers live in the optimization window until a strategy elects them
// into a physical output packet. The payload is an iovec: a plain Isend
// carries one segment, a vector send (Isendv) several — either way it is
// one wire entry under one header.
type packet struct {
	gate  *Gate
	kind  entryKind
	flags flags
	tag   Tag
	seq   seqNum
	iov   iovec  // payload segments for data entries; nil for control entries
	aux   uint32 // rendezvous id for rts/cts
	size  uint32 // body size for rts; payload length otherwise

	// driver pins the wrapper to one rail, or anyDriver for the common
	// list.
	driver int

	// gen is the election-validation stamp: windowView.Scan marks every
	// wrapper it shows with the engine's election generation, and
	// electOutput clears it on pick. Stale or duplicated picks mismatch
	// without needing a membership set.
	gen uint64
	// creditStamp marks the wrapper as inside the credit-eligibility
	// window of the current scan (see Gate.scanEligible), the same
	// generation trick as gen.
	creditStamp uint64
	// taken flags the wrapper for removal during window.take — a mark on
	// the wrapper itself instead of a per-call membership map, since take
	// runs once per elected output on the pump hot path.
	taken bool

	// req is the send request this wrapper belongs to, if any.
	req *SendRequest
	// rdv is set on the eager body chunks of a rendezvous transaction's
	// original stream: the NIC's completion of the chunk's train counts
	// it in the transaction's countdown (rdvSend.retire).
	rdv *rdvSend
}

// payloadLen is the wrapper's logical payload size (0 for control
// entries).
func (pw *packet) payloadLen() int { return pw.iov.total() }

// wireSize is the wrapper's footprint inside an output packet.
func (pw *packet) wireSize() int {
	if pw.kind.hasPayload() {
		return headerSize + pw.payloadLen()
	}
	return headerSize
}

// segCount is the number of NIC gather segments the wrapper occupies.
func (pw *packet) segCount() int {
	if pw.kind.hasPayload() {
		return 1 + pw.iov.segCount() // header + payload segments
	}
	return 1
}

// ctrl reports whether the wrapper is protocol control (rendezvous
// handshake, acks, credit replenishment) rather than application data.
func (pw *packet) ctrl() bool {
	return pw.kind == kindRTS || pw.kind == kindCTS || pw.kind == kindAck || pw.kind == kindCredit
}

// header builds the wire header for the wrapper.
func (pw *packet) header() header {
	return header{
		kind:   pw.kind,
		flags:  pw.flags,
		tag:    pw.tag,
		seq:    pw.seq,
		length: pw.size,
		aux:    pw.aux,
	}
}

// window is the optimization window of one gate: the submission lists of
// the collect layer. perDriver[i] holds wrappers pinned to rail i; common
// holds wrappers any rail may take.
//
// big counts the data wrappers of the window whose payload reaches
// bigAt, the smallest positive rendezvous threshold of the engine's rails
// (0: no rail switches to rendezvous, and big stays 0): while it is zero,
// no rail has a wrapper to convert and prepare skips its walk. Every
// method that moves data in or out of the lists keeps it current.
type window struct {
	common    []*packet
	perDriver [][]*packet
	bigAt     int
	big       int
}

func newWindow(nDrivers, bigAt int) *window {
	return &window{perDriver: make([][]*packet, nDrivers), bigAt: bigAt}
}

// oversize reports whether the wrapper counts in big.
func (w *window) oversize(pw *packet) bool {
	return pw.kind == kindData && w.bigAt > 0 && pw.payloadLen() >= w.bigAt
}

// setBigAt moves the oversize threshold (a rail was attached) and
// recounts big against it.
func (w *window) setBigAt(bigAt int) {
	w.bigAt = bigAt
	w.big = w.countBig(w.common)
	for _, l := range w.perDriver {
		w.big += w.countBig(l)
	}
}

// countBig counts the wrappers of list that count in big.
func (w *window) countBig(list []*packet) int {
	n := 0
	for _, pw := range list {
		if w.oversize(pw) {
			n++
		}
	}
	return n
}

// push inserts a wrapper at the tail of its submission list.
func (w *window) push(pw *packet) {
	if w.oversize(pw) {
		w.big++
	}
	if pw.driver == anyDriver {
		w.common = append(w.common, pw)
		return
	}
	w.perDriver[pw.driver] = append(w.perDriver[pw.driver], pw)
}

// pushFront puts wrappers back at the head of the common list, in order
// (a failed rail's staged packet returning to the window).
func (w *window) pushFront(pws []*packet) {
	w.big += w.countBig(pws)
	w.common = append(append([]*packet(nil), pws...), w.common...)
}

// size counts every wrapper waiting in the window, on any list.
func (w *window) size() int {
	n := len(w.common)
	for _, l := range w.perDriver {
		n += len(l)
	}
	return n
}

// empty reports whether no wrapper is waiting anywhere.
func (w *window) empty() bool {
	if len(w.common) > 0 {
		return false
	}
	for _, l := range w.perDriver {
		if len(l) > 0 {
			return false
		}
	}
	return true
}

// pending counts wrappers a given driver could send: its own list plus
// the common list.
func (w *window) pending(driver int) int {
	return len(w.perDriver[driver]) + len(w.common)
}

// scan visits, in submission order, every wrapper the given driver could
// send (its pinned list first, then the common list). The visit function
// returns false to stop early. Wrappers must not be removed during a scan;
// strategies collect candidates and then call take. It returns how many
// wrappers it showed visit, for the caller to count (countWalk).
func (w *window) scan(driver int, visit func(pw *packet) bool) (shown int) {
	for _, pw := range w.perDriver[driver] {
		shown++
		if !visit(pw) {
			return shown
		}
	}
	for _, pw := range w.common {
		shown++
		if !visit(pw) {
			return shown
		}
	}
	return shown
}

var (
	cWalks = sim.Counter("core.window_walks")
	cShown = sim.Counter("core.wrappers_shown")
)

// countWalk counts one scan of a window in the world: the walk, and the
// wrappers it showed its visitor.
func (e *Engine) countWalk(shown int) {
	e.world.Count(cWalks)
	e.world.Add(cShown, shown)
}

// take removes the given wrappers from their submission lists. Wrappers
// not present are ignored (they may have been replaced in place).
func (w *window) take(pws []*packet) {
	for _, pw := range pws {
		pw.taken = true
	}
	w.common = w.filterOut(w.common)
	for i := range w.perDriver {
		w.perDriver[i] = w.filterOut(w.perDriver[i])
	}
	// Clear the marks: a wrapper that was replaced in place (and so never
	// filtered) must not vanish from a later take's sweep by accident.
	for _, pw := range pws {
		pw.taken = false
	}
}

// replace swaps old for nw in place, keeping window position (used when a
// data wrapper is converted to a rendezvous request, a control wrapper:
// only old leaves the oversize count).
func (w *window) replace(old, nw *packet) bool {
	list := w.common
	if old.driver != anyDriver {
		list = w.perDriver[old.driver]
	}
	for i, pw := range list {
		if pw == old {
			if w.oversize(old) {
				w.big--
			}
			list[i] = nw
			return true
		}
	}
	return false
}

// filterOut compacts list, dropping wrappers whose taken mark is set.
func (w *window) filterOut(list []*packet) []*packet {
	out := list[:0]
	for _, pw := range list {
		if !pw.taken {
			out = append(out, pw)
		} else if w.oversize(pw) {
			w.big--
		}
	}
	// Zero the tail so removed wrappers can be collected.
	for i := len(out); i < len(list); i++ {
		list[i] = nil
	}
	return out
}

// output is one physical packet synthesized by a strategy: an ordered
// train of wrappers bound for one gate over one rail, carrying what every
// later step of its life needs — account, feed, send, the link layer and
// the NIC completion each take the output alone. The totals are
// maintained incrementally by add, so the accounting and encode paths
// never recount the train.
type output struct {
	gate    *Gate
	rail    *rail
	entries []*packet
	segs    int // running gather-segment total
	payload int // running application-payload total
	wire    int // running wire-byte total (plus the link entry once framed)

	readyAt sim.Time   // when a staged output's preparation ends (Options.Anticipate)
	sentAt  sim.Time   // when the train was handed to the driver
	link    *linkFrame // the retained link frame (Options.Reliability)

	// onReady and onSent are the method values o.ready and o.sent, bound
	// when the output is first allocated and kept across recycling: the
	// two events of an output's life capture nothing but the output, so a
	// recycled one schedules them without allocating a closure.
	onReady, onSent func()
}

// add appends one wrapper to the train, keeping the running totals
// current.
func (o *output) add(pw *packet) {
	o.entries = append(o.entries, pw)
	o.segs += pw.segCount()
	o.payload += pw.payloadLen()
	o.wire += pw.wireSize()
}
