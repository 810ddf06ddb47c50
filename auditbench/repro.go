package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/platform"
)

// The documented reproduction config: cmd/figures' defaults.
const (
	reproUniverse = 1 << 17
	reproK        = 1000
	reproSeed     = 1 // experiments.Config.Seed = deployment seed 0 + 1
)

// sampleMask keeps about one measured spec in 4096 for the set-algebra
// check on the repro workload.
const sampleMask = 1<<12 - 1

// warmAll materializes every interface's catalog concurrently, as
// experiments.NewRunner does for a deployment, and returns the wall time.
func warmAll(ifaces []*platform.Interface) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for _, p := range ifaces {
		wg.Add(1)
		go func(p *platform.Interface) {
			defer wg.Done()
			p.Warm()
		}(p)
	}
	wg.Wait()
	return time.Since(start)
}

// catalogWork is the number of user-option memberships a Warm decides:
// users times catalog options, summed over interfaces.
func catalogWork(ifaces []*platform.Interface) float64 {
	total := 0.0
	for _, p := range ifaces {
		c := p.Catalog()
		total += float64(p.Universe().Size()) * float64(len(c.Attributes)+len(c.Topics)+len(c.Placements))
	}
	return total
}

func runRepro(cfg runConfig, m *meter) (*result, error) {
	reg := obs.NewRegistry()
	m.startSetup()
	d, err := platform.NewDeployment(platform.DeployOptions{UniverseSize: reproUniverse, Metrics: reg})
	if err != nil {
		return nil, err
	}
	warm := warmAll(d.Interfaces())
	clk := &layerClock{}
	var samplers []*sampler
	var provs []core.Provider
	for _, p := range d.Interfaces() {
		var s *sampler
		if p.Name() != catalog.PlatformGoogle { // Google reports impressions, not reach
			s = &sampler{seed: cfg.seed, mask: sampleMask}
			samplers = append(samplers, s)
		}
		w, err := wrapProvider(core.NewPlatformProvider(p), clk, s)
		if err != nil {
			return nil, err
		}
		provs = append(provs, w)
	}
	runner, err := experiments.NewRunner(experiments.Config{Providers: provs, K: reproK, Seed: reproSeed, Metrics: reg})
	if err != nil {
		return nil, err
	}
	depRunner, err := experiments.NewRunner(experiments.Config{Deployment: d, K: reproK, Seed: reproSeed, Metrics: reg})
	if err != nil {
		return nil, err
	}
	door := func(name string) (core.Provider, error) {
		p, err := d.ByName(name)
		if err != nil {
			return nil, err
		}
		return core.NewPlatformProvider(p), nil
	}
	reach := func(name string) *platform.Interface {
		if name == catalog.PlatformGoogle {
			return nil
		}
		p, _ := d.ByName(name) // name comes from the deployment's own dialects
		return p
	}
	m.setupDone()
	pr := runPhases(runner, depRunner)
	m.runDone()

	res := newResult(m, int64(pr.attempted), int64(pr.failed))
	res.problems = append(res.problems, pr.errs...)
	res.problems = append(res.problems, checkArtifacts(pr, cfg.resultsDir)...)
	checked := 0
	for i, p := range reachInterfaces(d) {
		for _, s := range samplers[i].got {
			checked++
			if msg := checkSetAlgebra(p, s); msg != "" {
				res.problems = append(res.problems, msg)
			}
		}
	}
	if checked == 0 {
		res.problems = append(res.problems, "set-algebra check sampled no specs")
	}
	res.record["sampled_specs_checked"] = checked
	res.layers["population.warm_s"] = warm.Seconds()
	res.layers["population.users_per_s"] = catalogWork(d.Interfaces()) / warm.Seconds()
	phaseLayers(res, pr)
	coreLayers(res, reg, clk, pr.portableS)
	res.layers["platform.us_per_spec"] = perSpecMicros(clk.busy, clk.items)
	platformLayers(res, reg)
	if err := runDoor(res, d, door, cfg.seed, reach); err != nil {
		return nil, err
	}
	return res, nil
}

// reachInterfaces lists the interfaces samplers were attached to, in the
// same order.
func reachInterfaces(d *platform.Deployment) []*platform.Interface {
	var out []*platform.Interface
	for _, p := range d.Interfaces() {
		if p.Name() != catalog.PlatformGoogle {
			out = append(out, p)
		}
	}
	return out
}

// checkSetAlgebra recomputes one measured size from the serial dense set
// algebra (Interface.Audience), apart from the batched and compiled path
// that answered it: Rounder(ScaleFactor × |audience|).
func checkSetAlgebra(p *platform.Interface, s sampled) string {
	aud, err := p.Audience(s.spec)
	if err != nil {
		return fmt.Sprintf("%s: audience of sampled spec: %v", p.Name(), err)
	}
	want := p.Rounder().Round(int64(float64(aud.Count())*p.ScaleFactor() + 0.5))
	if want != s.size {
		return fmt.Sprintf("%s: measured %d for a spec whose set algebra gives %d", p.Name(), s.size, want)
	}
	return ""
}

func cacheLookups(reg *obs.Registry) int64 {
	return sumCounter(reg, "audit_cache_hits_total") + sumCounter(reg, "audit_cache_misses_total") +
		sumCounter(reg, "audit_cache_collapsed_total")
}

// sumCounter adds a counter over all its label sets.
func sumCounter(reg *obs.Registry, name string) int64 {
	var total float64
	for _, s := range reg.Gather() {
		if s.Name == name && s.Kind == obs.KindCounter {
			total += s.Value
		}
	}
	return int64(total)
}

func phaseLayers(res *result, pr *phaseRun) {
	for name, secs := range pr.seconds {
		res.layers["experiments."+name+"_s"] = secs
	}
}

// coreLayers reports the auditor layer: calls, specs and busy time below
// its caches (from the provider wrappers), its self time over the phases
// those providers served, and the cache hit ratio with its base.
func coreLayers(res *result, reg *obs.Registry, clk *layerClock, phaseS float64) {
	res.layers["core.upstream_calls"] = float64(clk.calls)
	res.layers["core.upstream_specs"] = float64(clk.items)
	res.layers["core.upstream_s"] = clk.busy.Seconds()
	res.layers["core.self_s"] = phaseS - clk.busy.Seconds()
	lookups := cacheLookups(reg)
	res.layers["core.cache_lookups"] = float64(lookups)
	if lookups > 0 {
		res.layers["core.cache_hit_ratio"] = float64(sumCounter(reg, "audit_cache_hits_total")) / float64(lookups)
	}
}

// platformLayers reads the query compiler's counters.
func platformLayers(res *result, reg *obs.Registry) {
	hits := sumCounter(reg, "plan_cache_hits_total")
	lookups := hits + sumCounter(reg, "plan_cache_misses_total")
	res.layers["platform.plans_compiled"] = float64(sumCounter(reg, "plans_compiled_total"))
	res.layers["platform.plan_cache_lookups"] = float64(lookups)
	if lookups > 0 {
		res.layers["platform.plan_cache_hit_ratio"] = float64(hits) / float64(lookups)
	}
}

func perSpecMicros(d time.Duration, specs int64) float64 {
	if specs == 0 {
		return 0
	}
	return d.Seconds() * 1e6 / float64(specs)
}
