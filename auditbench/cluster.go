package main

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/platform"
)

// Cluster shape: three shards over the documented 2^17-user universe, no
// replicas, and 32 partitions so each shard holds several.
const (
	clusterShards    = 3
	clusterPartition = 1 << 12
)

func runCluster(cfg runConfig, m *meter) (*result, error) {
	reg := obs.NewRegistry()
	m.startSetup()
	opts := platform.DeployOptions{UniverseSize: reproUniverse, Compressed: true, Metrics: reg}
	var nodes []string
	for i := 0; i < clusterShards; i++ {
		nodes = append(nodes, fmt.Sprintf("shard-%d", i))
	}
	ring, err := cluster.NewRing(nodes, 0, 0)
	if err != nil {
		return nil, err
	}
	layout, err := cluster.NewLayout(ring, reproUniverse, clusterPartition)
	if err != nil {
		return nil, err
	}
	rec := &scatterRec{open: map[*platform.EstimateRequest]*shardBatch{}}
	var conns []cluster.Conn
	var ifaces []*platform.Interface
	held := map[string]int{}
	for _, n := range nodes {
		s, err := cluster.NewShard(n, layout, opts)
		if err != nil {
			return nil, err
		}
		ifaces = append(ifaces, s.Deployment().Interfaces()...)
		held[n] = len(s.Held())
		if len(layout.PrimaryPartitions(n)) > 0 {
			rec.fanout++
		}
		var cn cluster.Conn = s
		if cfg.trace {
			cn = wrapConn(s, rec)
		}
		conns = append(conns, cn)
	}
	warm := warmAll(ifaces)
	coord, err := cluster.NewCoordinator(cluster.Options{Layout: layout, Conns: conns, Deploy: opts, Metrics: reg})
	if err != nil {
		return nil, err
	}
	clk := &layerClock{}
	var provs []core.Provider
	for _, p := range coord.Metadata().Interfaces() {
		cp, err := coord.Provider(p.Name())
		if err != nil {
			return nil, err
		}
		w, err := wrapProvider(cp, clk, nil)
		if err != nil {
			return nil, err
		}
		provs = append(provs, w)
	}
	runner, err := experiments.NewRunner(experiments.Config{Providers: provs, K: reproK, Seed: reproSeed, Metrics: reg})
	if err != nil {
		return nil, err
	}
	m.setupDone()
	pr := runPhases(runner, nil)
	m.runDone()

	res := newResult(m, int64(pr.attempted), int64(pr.failed))
	res.problems = append(res.problems, pr.errs...)
	res.problems = append(res.problems, checkArtifacts(pr, cfg.resultsDir)...)
	res.record["partitions_held"] = held
	res.layers["population.warm_s"] = warm.Seconds()
	res.layers["population.users_per_s"] = catalogWork(ifaces) / warm.Seconds()
	phaseLayers(res, pr)
	coreLayers(res, reg, clk, pr.portableS)
	platformLayers(res, reg)
	res.layers["cluster.coord_s"] = clk.busy.Seconds()
	if cfg.trace {
		rec.mu.Lock()
		res.layers["cluster.shard_s"] = rec.sum.Seconds()
		res.layers["cluster.shard_calls"] = float64(rec.calls)
		res.layers["cluster.overhead_s"] = (clk.sum - rec.slowest).Seconds()
		res.layers["cluster.straggler_ratio"] = median(rec.ratios)
		res.layers["platform.us_per_spec"] = perSpecMicros(rec.sum, rec.specs)
		if len(rec.open) > 0 {
			res.problems = append(res.problems, fmt.Sprintf("%d scatters left open: shard calls did not group into batches", len(rec.open)))
		}
		rec.mu.Unlock()
	}
	if err := runDoor(res, coord.Metadata(), coord.Provider, cfg.seed, nil); err != nil {
		return nil, err
	}
	return res, nil
}
