package nmad

import (
	"nmad/internal/drivers"
	"nmad/internal/simnet"
)

// Introspection surface of the facade, for diagnostic tools (nmad-info).

// RailCaps is the transfer-layer capability report the scheduling
// strategies consume: rendezvous threshold, gather/scatter capacity,
// RDMA availability, nominal performance figures.
type RailCaps = drivers.Caps

// ProbeRail instantiates the driver of one network profile on a
// throwaway fabric and returns the driver name and its capability
// report.
func ProbeRail(p Profile) (name string, caps RailCaps, err error) {
	f, err := simnet.Machine{Nodes: 2, Rails: []Profile{p}}.Build()
	if err != nil {
		return "", RailCaps{}, err
	}
	drv, err := drivers.New(f.Networks()[0], 0)
	if err != nil {
		return "", RailCaps{}, err
	}
	return drv.Name(), drv.Caps(), nil
}
