// Package simnet stands in for the fabric: it declares the transaction
// kinds the body-path row resolves.
package simnet

// TxKind is the kind of a NIC transaction.
type TxKind int

const (
	TxEager TxKind = iota
	TxRdma
)
