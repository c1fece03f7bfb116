package nmad

import (
	"nmad/internal/drivers"
	"nmad/internal/sim"
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
	w := sim.NewWorld()
	f := simnet.NewFabric(w, 2, simnet.DefaultHost())
	net, err := f.AddNetwork(p)
	if err != nil {
		return "", RailCaps{}, err
	}
	drv, err := drivers.New(net, 0)
	if err != nil {
		return "", RailCaps{}, err
	}
	return drv.Name(), drv.Caps(), nil
}
