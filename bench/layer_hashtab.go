package main

import "atomemu/internal/hashtab"

func init() {
	registerLayer(layerDriver{
		Pkg: "hashtab", Home: "atomic_2t", Share: 0.01,
		Metrics: []layerMetric{
			{Name: "hashtab.set_ns", Unit: "ns", Moves: "sc_per_s@atomic_2t, guest_mips@compute_1t"},
			{Name: "hashtab.check_ns", Unit: "ns", Moves: "sc_per_s@atomic_2t"},
			{Name: "hashtab.lock_unlock_ns", Unit: "ns", Moves: "sc_per_s@atomic_2t"},
		},
		Run: runHashtabLayer,
	})
}

// hashBits is engine.DefaultConfig's HashBits.
const hashBits = 14

func runHashtabLayer(env *layerEnv) (map[string]float64, error) {
	tab, err := hashtab.New(hashBits)
	if err != nil {
		return nil, err
	}
	const batch = 4096
	var addr uint32
	var sink bool
	set := nsPerOp(env.budget/3, batch, func() { addr += 4; tab.Set(addr, 1) })
	check := nsPerOp(env.budget/3, batch, func() { addr += 4; sink = tab.CheckOwner(addr, 1) != sink })
	// Lock only succeeds on an entry the thread owns, so each round sets the
	// entry first and the set's own time is taken off.
	lock := nsPerOp(env.budget/3, batch, func() {
		addr += 4
		tab.Set(addr, 1)
		if tab.Lock(addr, 1) {
			tab.Unlock(addr, 1)
		}
	})
	return map[string]float64{"hashtab.set_ns": set, "hashtab.check_ns": check, "hashtab.lock_unlock_ns": lock - set}, nil
}
