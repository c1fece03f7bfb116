package sched

import (
	"fmt"
	"sort"
	"sync"
)

// The strategy registry — the paper's "extensible and programmable set
// of strategies", selectable by name at engine construction. The RWMutex
// makes registration and lookup safe for concurrent engine construction
// (many clusters assembled from parallel tests or goroutines). That is
// the lock's entire scope: Register/New/Names run at construction time
// only, so no engine hot path — election, completion, receive dispatch —
// ever touches it.
var (
	registryMu sync.RWMutex
	registry   = map[string]func() Strategy{}
)

// Register adds a constructor to the registry. The constructor runs once
// per engine selecting the name, so stateful strategies get one instance
// each. Registering a name twice returns an error: strategy names are
// global configuration keys.
func Register(name string, mk func() Strategy) error {
	if name == "" || mk == nil {
		return fmt.Errorf("sched: Register needs a name and a constructor")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		return fmt.Errorf("sched: duplicate strategy %q", name)
	}
	registry[name] = mk
	return nil
}

// mustRegister installs the package built-ins at init time; a duplicate
// here is a programming error, so it panics.
func mustRegister(name string, mk func() Strategy) {
	if err := Register(name, mk); err != nil {
		panic(err)
	}
}

// New instantiates a registered strategy by name.
func New(name string) (Strategy, error) {
	registryMu.RLock()
	mk, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("sched: unknown strategy %q (have %v)", name, Names())
	}
	return mk(), nil
}

// Names lists the registered strategies in sorted order.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	mustRegister("default", func() Strategy { return defaultStrategy{newAccumulator()} })
	mustRegister("aggreg", func() Strategy { return aggregStrategy{newAccumulator()} })
	mustRegister("split", func() Strategy { return newSplit() })
	mustRegister("prio", func() Strategy { return newPrio() })
	mustRegister("adaptive", func() Strategy { return newAdaptive() })
}
