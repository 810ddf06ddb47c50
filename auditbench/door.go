package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/platform"
)

// The door series: doorBatches batches of doorSpecs specs each. Ten
// batches lie beyond its p99. A batch takes several milliseconds, so a
// millisecond-scale stall of the host does not double it, as it did the
// 2 ms batches of 64 specs. The series stays within one pass of each
// dialect's unique pool. It runs on doorProcs processors: with two, the
// coordinator's shard goroutines wait on whichever vCPU the hypervisor
// has taken, and audit-cluster's median batch moved 10% between series
// of one process, against 4% with one.
const (
	doorBatches = 1000
	doorSpecs   = 192
	doorProcs   = 1
)

// doorMask keeps about one door slot in 256 for the set-algebra check.
const doorMask = 1<<8 - 1

// runDoor sends the audit workloads' fixed batch series, seeded like the
// serve-snapshot traffic, one batch at a time to the measurement door the
// workload's auditors sit on: the in-process platform provider for repro,
// the coordinator's provider for audit-cluster. It runs after every other
// reading is taken and fills queries_per_s and batch_p50_ms, and the
// record's batch_p99_ms.
// An audit's own upstream batches are grouped by core, so their latency
// would rise when core merged work into fewer, larger batches. Slots of the
// interfaces check names are sampled for the set-algebra check.
func runDoor(res *result, meta *platform.Deployment, door func(name string) (core.Provider, error), seed uint64,
	check func(name string) *platform.Interface) error {
	ds, err := dialectsOf(meta)
	if err != nil {
		return err
	}
	measurers := make([]core.BatchMeasurer, len(ds))
	samplers := make([]*sampler, len(ds))
	for i, dl := range ds {
		p, err := door(dl.name)
		if err != nil {
			return err
		}
		bm, ok := p.(core.BatchMeasurer)
		if !ok {
			return fmt.Errorf("%s provider has no batch door", dl.name)
		}
		measurers[i] = bm
		if check != nil && check(dl.name) != nil {
			samplers[i] = &sampler{seed: seed, mask: doorMask}
		}
	}
	st := newStream(ds, seed, doorSpecs)
	lat := make([]time.Duration, 0, doorBatches)
	answered := make([]int64, 0, doorBatches)
	var attempted, failed int64
	var failures []string

	// Collecting first starts every run's series with the same heap.
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(doorProcs))

	start := time.Now()
	for b := 0; b < doorBatches; b++ {
		di, _, specs, _ := st.specs(b)
		t := time.Now()
		out := measurers[di].MeasureMany(specs)
		lat = append(lat, time.Since(t))
		attempted += int64(len(specs))
		ok := int64(len(specs))
		for k := range out {
			if out[k].Err != nil {
				failed++
				ok--
				if len(failures) < 5 {
					failures = append(failures, fmt.Sprintf("door %s slot: %v", ds[di].name, out[k].Err))
				}
			}
		}
		answered = append(answered, ok)
		samplers[di].offerMany(specs, out)
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&ms1)

	checked := 0
	for i, s := range samplers {
		if s == nil {
			continue
		}
		p := check(ds[i].name)
		for _, g := range s.got {
			checked++
			if msg := checkSetAlgebra(p, g); msg != "" {
				res.problems = append(res.problems, "door: "+msg)
			}
		}
	}
	if check != nil && checked == 0 {
		res.problems = append(res.problems, "door: set-algebra check sampled no specs")
	}
	res.attempted += attempted
	res.failed += failed
	if len(failures) > 0 {
		res.record["door_failure_examples"] = failures
	}
	res.record["door_batches"] = len(lat)
	res.record["door_specs_checked"] = checked
	res.record["door_s"] = wall.Seconds()
	res.record["door_alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	res.record["door_gc_cycles"] = ms1.NumGC - ms0.NumGC
	res.record["door_gomaxprocs"] = doorProcs
	res.record["batch_p99_ms"] = rankMs(lat, 0.99)
	res.e2e["queries_per_s"] = windowRate(lat, answered)
	res.e2e["batch_p50_ms"] = rankMs(lat, 0.50)
	return nil
}
