package simnet

import (
	"errors"
	"fmt"

	"nmad/internal/sim"
)

// Machine is the one description of a simulated cluster: how many hosts,
// which rails in attach order, the host model and the fault profile.
// Every harness (the facade, scenarios, replay, the figure builders)
// fills one and calls Build; a recording header embeds one, so the JSON
// tags are part of the recording format.
type Machine struct {
	// Nodes is the fabric size.
	Nodes int `json:"nodes"`
	// Rails are the full network profiles in attach order (full profiles,
	// not names, so tuned thresholds replay exactly).
	Rails []Profile `json:"rails"`
	// Host is the node machine model; the zero value means DefaultHost.
	Host Host `json:"host"`
	// Faults is the fault profile installed from time zero, nil for a
	// lossless fabric.
	Faults *FaultProfile `json:"faults,omitempty"`
}

// Build assembles the machine on a fresh world: one NIC per node and
// rail, then the fault injectors.
func (m Machine) Build() (*Fabric, error) {
	if m.Nodes < 1 {
		return nil, fmt.Errorf("simnet: a machine needs at least one node, got %d", m.Nodes)
	}
	if len(m.Rails) == 0 {
		return nil, errors.New("simnet: a machine needs at least one rail")
	}
	host := m.Host
	if host.MemcpyBandwidth <= 0 {
		host = DefaultHost()
	}
	f := NewFabric(sim.NewWorld(), m.Nodes, host)
	for _, prof := range m.Rails {
		if _, err := f.AddNetwork(prof); err != nil {
			return nil, err
		}
	}
	if m.Faults != nil {
		if err := f.SetFaults(*m.Faults); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Machine describes the fabric as built (and as mutated since: a fault
// profile updated mid-run reads back updated). The result shares nothing
// with the fabric.
func (f *Fabric) Machine() Machine {
	m := Machine{Nodes: len(f.nodes), Host: f.nodes[0].host}
	for _, net := range f.nets {
		m.Rails = append(m.Rails, net.prof)
	}
	if f.faults != nil {
		fp := *f.faults
		fp.Rails = append([]RailFaults(nil), fp.Rails...)
		m.Faults = &fp
	}
	return m
}
