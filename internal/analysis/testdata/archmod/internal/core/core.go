// Package core stands in for the engine: one record per rail and one body
// path.
package core

import (
	"archmod/internal/sim"
	"archmod/internal/simnet"
)

type driver struct{}

// SendFrame sends a flattened transaction.
func (d *driver) SendFrame(kind simnet.TxKind, n int) error { return nil }

// panic is a method, not the builtin.
func (d *driver) panic(msg string) {}

type times []int64

type rail struct {
	drv *driver
	// A per-rail field lives here, one value per rail.
	feeding int
}

type engine struct {
	rails               []rail
	feeding, railFreeAt []int64  // want "a second per-rail slice" "a second per-rail slice"
	railFailed          []bool   // want "a second per-rail slice"
	railRetrans         times    // want "a second per-rail slice"
	pendingPinned       [][]byte // want "a second per-rail slice"
	backlog             []int
	railCount           int
	anon                struct {
		railFailed []bool // want "a second per-rail slice"
	}
	waiter *sim.Cond // want "a second notification path"
}

// send puts an eager frame on the wire, then an RDMA chunk as a frame: the
// second call's kind sits on the line after SendFrame(. A comment naming
// SendFrame(simnet.TxRdma) is not a call.
func (e *engine) send(r *rail) error {
	if err := r.drv.SendFrame(simnet.TxEager, 1); err != nil {
		return err
	}
	r.drv.panic("panic(")
	return r.drv.SendFrame( // want "an RDMA body chunk is read from the caller's memory"
		simnet.TxRdma, 2)
}

// sendKind is the same call with the kind inside an expression.
func (e *engine) sendKind(r *rail, rdma bool) error {
	kind := simnet.TxEager
	if rdma {
		kind = simnet.TxRdma
	}
	_ = r.drv.SendFrame(kind, 0)
	return r.drv.SendFrame(simnet.TxKind(simnet.TxRdma), 3) // want "an RDMA body chunk is read from the caller's memory"
}
