package core

import (
	"testing"

	"nmad/internal/sim"
	"nmad/internal/simnet"
)

// fuzzTrains is the seed corpus of FuzzWalkEntries: one well-formed
// entry of every kind, bare and behind a reliable-frame link header. They
// are built with the encoder so they follow the wire format; the inputs
// under testdata/fuzz are bytes, and pin the format as it was when each
// was found.
func fuzzTrains() [][]byte {
	var out [][]byte
	for _, k := range []entryKind{kindData, kindRTS, kindCTS, kindChunk, kindAck, kindCredit, kindLink, kindDone} {
		h := header{kind: k, tag: 7, length: 4, aux: 1}
		train := encodeHeader(nil, h)
		if k.hasPayload() {
			train = append(train, 1, 2, 3, 4)
		}
		out = append(out, train, append(appendLinkHeader(nil, linkFrameTag, 0, 0), train...))
	}
	return out
}

// FuzzWalkEntries hands arbitrary bytes to the entry-train decoder and
// then, as one delivery in a real frame, to a live engine in the middle
// of an exchange, with and without the link layer. Nothing a peer can put
// on the wire may panic the decoder, the dispatch behind it or the events
// it leaves on the queue; every payload the decoder yields is a slice of
// the input; and a train the decoder refuses is counted in
// Stats.ProtocolErrors — entries before the damage are dispatched, the
// rest is dropped, nothing is lost silently. Each input's worlds run
// under the engine self-checks, and a violation fails the input.
func FuzzWalkEntries(f *testing.F) {
	for _, train := range fuzzTrains() {
		f.Add(train)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		walk := func(train []byte) error {
			off := 0
			err := walkEntries(train, func(h header, payload []byte) error {
				off += headerSize
				if len(payload) > 0 && (off+len(payload) > len(train) || &payload[0] != &train[off]) {
					t.Fatalf("payload of entry %v is not train[%d:%d]", h, off, off+len(payload))
				}
				off += len(payload)
				return nil
			})
			if err == nil && off != len(train) {
				t.Fatalf("decoder accepted the train but consumed %d of %d bytes", off, len(train))
			}
			return err
		}
		malformed := walk(data) != nil

		for _, reliable := range []bool{false, true} {
			opts := DefaultOptions()
			opts.Reliability = reliable
			w, e0, _ := testWorld(t, opts)
			// State for the entries to hit: a posted receive too small for
			// the seeds' payload, and a rendezvous send parked on its CTS.
			e0.Gate(1).Irecv(nil, 7, make([]byte, 2))
			e0.Gate(1).Isend(nil, 9, make([]byte, 64<<10))
			if err := w.RunUntil(50 * sim.Microsecond); err != nil || len(e0.rdvSend) != 1 {
				t.Fatalf("set-up: %v, %d rendezvous sends parked, want 1", err, len(e0.rdvSend))
			}

			fr := e0.frames.New([][]byte{data})
			e0.onDelivery(e0.rails[0], simnet.Delivery{Src: 1, Kind: simnet.TxEager, Data: fr.Bytes(), Frame: fr})
			fr.Release()

			// What must have been counted: the reliable engine walks only
			// the train behind a frame header and takes other link entries
			// whole; everything else is the plain walk.
			want := malformed
			if h, err := decodeHeader(data); reliable && err == nil && h.kind == kindLink {
				want = h.aux == linkFrameTag && walk(data[headerSize:]) != nil
			}
			if want && e0.Stats().ProtocolErrors == 0 {
				t.Errorf("reliability %v: a malformed train was not counted in ProtocolErrors", reliable)
			}
			// Whatever the entries started (acks, a body, a pong) must
			// drain. No process is waiting, so a run that ends is nil.
			if err := w.RunUntil(w.Now() + 10*sim.Millisecond); err != nil {
				t.Errorf("reliability %v: %v", reliable, err)
			}
		}
		for _, msg := range takeSelfCheck("FuzzWalkEntries") {
			t.Error(msg)
		}
	})
}
