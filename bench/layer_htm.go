package main

import (
	"fmt"

	"atomemu/internal/htm"
)

func init() {
	registerLayer(layerDriver{
		Pkg: "htm", Home: "atomic_2t", Share: 0.01,
		Metrics: []layerMetric{
			{Name: "htm.txn_commit_ns", Unit: "ns", Moves: "sc_per_s@atomic_2t (under the htm schemes)"},
			{Name: "htm.notify_store_inactive_ns", Unit: "ns", Moves: "guest_mips@compute_1t (under the htm schemes)"},
		},
		Run: runHTMLayer,
	})
}

// htmBits is engine.DefaultConfig's HTMBits.
const htmBits = 16

// runHTMLayer times an uncontended read-modify-write transaction (begin,
// read, write, commit: what hst-htm's SC does) and the store hook every plain
// store pays while no transaction is live.
func runHTMLayer(env *layerEnv) (map[string]float64, error) {
	tm, err := htm.New(htmBits, 0)
	if err != nil {
		return nil, err
	}
	var cell uint32
	load := func(uint32) (uint32, error) { return cell, nil }
	store := func(_, v uint32) error { cell = v; return nil }
	const addr = 0x10040
	var terr error
	commit := nsPerOp(env.budget/2, 1024, func() {
		t := tm.Begin(1, load)
		v, err := t.Read(addr)
		if err == nil {
			err = t.Write(addr, v+1)
		}
		if err == nil {
			err = t.Commit(store)
		}
		if err != nil {
			terr = err
		}
	})
	if terr != nil {
		return nil, fmt.Errorf("uncontended transaction aborted: %w", terr)
	}
	notify := nsPerOp(env.budget/2, 4096, func() { tm.NotifyStore(addr) })
	return map[string]float64{"htm.txn_commit_ns": commit, "htm.notify_store_inactive_ns": notify}, nil
}
