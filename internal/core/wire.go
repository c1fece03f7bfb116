package core

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Tag identifies a logical flow between two nodes. Layers above multiplex
// their own spaces into it (MAD-MPI packs the communicator id into the
// high bits), and the engine optimizes across flows regardless.
type Tag uint64

// seqNum orders the packets of one (gate, tag) flow. Senders assign
// sequence numbers at submission time; receivers restore submission order
// even when the optimizer sent packets out of order or over different
// rails.
type seqNum uint32

// flags modify how a packet wrapper may be scheduled and delivered.
type flags uint16

const (
	// flagPriority asks the optimizer to favor earlier delivery of this
	// wrapper (the paper's example: an RPC service id needed to prepare
	// the data areas for the arguments).
	flagPriority flags = 1 << iota
	// flagUnordered lets the receiver deliver this wrapper as soon as it
	// arrives, outside the per-flow sequence order.
	flagUnordered
	// flagNeedAck makes the send complete only once the receiver has
	// matched the wrapper to a posted receive (synchronous-send
	// semantics; the receiver answers with an ack control entry, which
	// aggregates with its outbound traffic like any other wrapper).
	flagNeedAck
)

// entryKind discriminates the entries of the engine wire format.
type entryKind uint8

const (
	kindData   entryKind = 1 + iota // eager payload
	kindRTS                         // rendezvous request (header only)
	kindCTS                         // rendezvous grant (header only)
	kindChunk                       // rendezvous body fragment on a non-RDMA rail
	kindAck                         // synchronous-send acknowledgement (header only)
	kindCredit                      // receive-flow-control replenishment (header only)
	kindLink                        // link-layer reliability header (header only, see reliab.go)
	kindDone                        // rendezvous body fully landed (header only)
)

func (k entryKind) String() string {
	switch k {
	case kindData:
		return "data"
	case kindRTS:
		return "rts"
	case kindCTS:
		return "cts"
	case kindChunk:
		return "chunk"
	case kindAck:
		return "ack"
	case kindCredit:
		return "credit"
	case kindLink:
		return "link"
	case kindDone:
		return "rdv-done"
	default:
		return fmt.Sprintf("entryKind(%d)", uint8(k))
	}
}

// The engine wire format: an output packet is a train of entries, each a
// fixed header followed by an optional payload. Entries from different
// logical flows share the train — the cross-communicator aggregation that
// MADELEINE 3 could not do because its packets were header-less (paper
// §6); the header is the small price §5.1 measures.
//
//	offset  field
//	0       magic (0xAD)
//	1       kind
//	2:4     flags
//	4:12    tag
//	12:16   seq
//	16:20   length (payload bytes for data/chunk; body size for rts)
//	20:24   aux (rendezvous id; chunk offset high bits live in seq)
const (
	headerSize  = 24
	headerMagic = 0xAD
)

// header is the decoded form of one entry header.
type header struct {
	kind   entryKind
	flags  flags
	tag    Tag
	seq    seqNum
	length uint32
	aux    uint32
}

// errBadWire reports a malformed entry train.
var errBadWire = errors.New("core: malformed wire data")

// encodeHeader appends the 24-byte encoding of h to dst.
func encodeHeader(dst []byte, h header) []byte {
	var b [headerSize]byte
	b[0] = headerMagic
	b[1] = byte(h.kind)
	binary.LittleEndian.PutUint16(b[2:4], uint16(h.flags))
	binary.LittleEndian.PutUint64(b[4:12], uint64(h.tag))
	binary.LittleEndian.PutUint32(b[12:16], uint32(h.seq))
	binary.LittleEndian.PutUint32(b[16:20], h.length)
	binary.LittleEndian.PutUint32(b[20:24], h.aux)
	return append(dst, b[:]...)
}

// decodeHeader reads one header from the front of data.
func decodeHeader(data []byte) (header, error) {
	if len(data) < headerSize {
		return header{}, fmt.Errorf("%w: %d bytes, need a %d-byte header", errBadWire, len(data), headerSize)
	}
	if data[0] != headerMagic {
		return header{}, fmt.Errorf("%w: bad magic %#x", errBadWire, data[0])
	}
	h := header{
		kind:   entryKind(data[1]),
		flags:  flags(binary.LittleEndian.Uint16(data[2:4])),
		tag:    Tag(binary.LittleEndian.Uint64(data[4:12])),
		seq:    seqNum(binary.LittleEndian.Uint32(data[12:16])),
		length: binary.LittleEndian.Uint32(data[16:20]),
		aux:    binary.LittleEndian.Uint32(data[20:24]),
	}
	switch h.kind {
	case kindData, kindRTS, kindCTS, kindChunk, kindAck, kindCredit, kindLink, kindDone:
		return h, nil
	default:
		return header{}, fmt.Errorf("%w: unknown entry kind %d", errBadWire, data[1])
	}
}

// hasPayload reports whether entries of kind k carry their length in
// trailing payload bytes (vs header-only control entries).
func (k entryKind) hasPayload() bool { return k == kindData || k == kindChunk }

// walkEntries decodes an entry train, invoking fn for each (header,
// payload) pair. It stops on the first malformed entry.
func walkEntries(data []byte, fn func(h header, payload []byte) error) error {
	for len(data) > 0 {
		h, err := decodeHeader(data)
		if err != nil {
			return err
		}
		data = data[headerSize:]
		var payload []byte
		if h.kind.hasPayload() {
			if int(h.length) > len(data) {
				return fmt.Errorf("%w: entry declares %d payload bytes, %d remain", errBadWire, h.length, len(data))
			}
			payload = data[:h.length]
			data = data[h.length:]
		}
		if err := fn(h, payload); err != nil {
			return err
		}
	}
	return nil
}
