package main

import (
	"atomemu/internal/tbstore"
)

func init() {
	registerLayer(layerDriver{
		Pkg: "tbstore", Home: "svc_sat_repeat", Share: 0.01,
		Metrics: []layerMetric{
			{Name: "tbstore.view_ns", Unit: "ns", Moves: "jobs_per_s@svc_sat_repeat, jobs_per_s@svc_sat_unique"},
			{Name: "tbstore.get_hit_ns", Unit: "ns", Moves: "jobs_per_s@svc_sat_repeat"},
			{Name: "tbstore.get_miss_ns", Unit: "ns", Moves: "jobs_per_s@svc_sat_unique"},
			{Name: "tbstore.publish_ns", Unit: "ns", Moves: "jobs_per_s@svc_sat_unique"},
		},
		Run: runTBStoreLayer,
	})
}

// runTBStoreLayer drives the content-addressed store with int blocks: attach
// to a key, publish a job's worth of blocks, look them up, look up absent
// ones. The store is sized as the README's -tbstore-blocks recipe sizes it.
func runTBStoreLayer(env *layerEnv) (map[string]float64, error) {
	const (
		capBlocks    = 1 << 16
		blocksPerJob = 512
	)
	st := tbstore.New[int](capBlocks)
	key := func(i int) tbstore.Key {
		var k tbstore.Key
		k.Image[0], k.Image[1], k.Image[2] = byte(i), byte(i>>8), byte(i>>16)
		k.Opts = "bench"
		return k
	}
	slice := env.budget / 4
	var n int
	out := map[string]float64{}
	out["tbstore.view_ns"] = nsPerOp(slice, 256, func() { n++; st.View(key(n % 64)) })
	// Publish fresh keys' blocks; a full store evicts, as it would in service.
	var v *tbstore.View[int]
	var pc uint32
	out["tbstore.publish_ns"] = nsPerOp(slice, blocksPerJob, func() {
		if pc%blocksPerJob == 0 {
			n++
			v = st.View(key(n))
		}
		pc++
		v.Publish(pc%blocksPerJob*4, int(pc))
	})
	hot := st.View(key(1 << 20))
	for i := uint32(0); i < blocksPerJob; i++ {
		hot.Publish(i*4, int(i))
	}
	out["tbstore.get_hit_ns"] = nsPerOp(slice, blocksPerJob, func() { pc++; hot.Get(pc % blocksPerJob * 4) })
	out["tbstore.get_miss_ns"] = nsPerOp(slice, blocksPerJob, func() { pc++; hot.Get(pc%blocksPerJob*4 + 2) })
	return out, nil
}
