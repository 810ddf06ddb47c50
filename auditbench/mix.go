package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/targeting"
)

// specShape names the structure of one spec: how many include clauses hold
// catalog options (attributes, topics, placements) and of which kinds, the
// class clause (gender, age, both or none), and whether it is scoped by
// location, has OR clauses or excludes anything.
func specShape(s targeting.Spec) string {
	var opts []string
	class, loc, or := "none", false, false
	for _, cl := range s.Include {
		if len(cl) > 1 {
			or = true
		}
		switch k := cl[0].Kind; k {
		case targeting.KindGender, targeting.KindAge:
			if class == "none" {
				class = k.String()
			} else {
				class = "gender+age"
			}
		case targeting.KindLocation:
			loc = true
		default:
			opts = append(opts, k.String())
		}
	}
	sort.Strings(opts)
	return fmt.Sprintf("options=%s class=%s location=%v or=%v exclude=%v",
		strings.Join(opts, "+"), class, loc, or, len(s.Exclude) > 0)
}

// streamMix summarises one interface's upstream spec stream.
type streamMix struct {
	Specs    int `json:"specs"`
	Distinct int `json:"distinct"`
	// RepeatShare is the share of specs that repeat an earlier one;
	// Repeated counts the distinct specs sent more than once and MaxSends
	// the most times one spec was sent.
	RepeatShare float64            `json:"repeat_share"`
	Repeated    int                `json:"repeated"`
	MaxSends    int                `json:"max_sends"`
	Shapes      map[string]float64 `json:"shapes"`
	Classes     map[string]float64 `json:"classes"` // class clause values
}

func summarise(specs []targeting.Spec) streamMix {
	sends := map[string]int{}
	shapes := map[string]int{}
	classes := map[string]int{}
	for _, s := range specs {
		sends[targeting.Canonical(s)]++
		shapes[specShape(s)]++
		for _, cl := range s.Include {
			if k := cl[0].Kind; k == targeting.KindGender || k == targeting.KindAge {
				classes[cl[0].String()]++
			}
		}
	}
	m := streamMix{Specs: len(specs), Distinct: len(sends), Shapes: map[string]float64{}, Classes: map[string]float64{}}
	for _, n := range sends {
		if n > 1 {
			m.Repeated++
		}
		m.MaxSends = max(m.MaxSends, n)
	}
	if len(specs) > 0 {
		m.RepeatShare = 1 - float64(len(sends))/float64(len(specs))
		for k, n := range shapes {
			m.Shapes[k] = float64(n) / float64(len(specs))
		}
		for k, n := range classes {
			m.Classes[k] = float64(n) / float64(len(specs))
		}
	}
	return m
}

// specmixMain runs the 12 portable phases of the repro workload with every
// upstream spec recorded, and prints each interface's spec shapes, the
// share of upstream specs that repeat an earlier one, and the auditors'
// cache hit ratio: the measurements the serve traffic mix is set from.
func specmixMain(args []string) error {
	fl := flag.NewFlagSet("specmix", flag.ContinueOnError)
	if err := fl.Parse(args); err != nil {
		return err
	}
	if fl.NArg() > 0 {
		return errors.New("specmix takes no arguments")
	}
	reg := obs.NewRegistry()
	d, err := platform.NewDeployment(platform.DeployOptions{UniverseSize: reproUniverse, Metrics: reg})
	if err != nil {
		return err
	}
	warmAll(d.Interfaces())
	clk := &layerClock{}
	recorders := map[string]*sampler{}
	var provs []core.Provider
	for _, p := range d.Interfaces() {
		s := &sampler{} // mask 0 keeps every spec
		recorders[p.Name()] = s
		w, err := wrapProvider(core.NewPlatformProvider(p), clk, s)
		if err != nil {
			return err
		}
		provs = append(provs, w)
	}
	runner, err := experiments.NewRunner(experiments.Config{Providers: provs, K: reproK, Seed: reproSeed, Metrics: reg})
	if err != nil {
		return err
	}
	pr := runPhases(runner, nil)
	if len(pr.errs) > 0 {
		return errors.New(strings.Join(pr.errs, "; "))
	}
	out := map[string]any{"upstream_batches": clk.batches, "upstream_calls": clk.calls}
	if n := cacheLookups(reg); n > 0 {
		out["cache_hit_ratio"] = float64(sumCounter(reg, "audit_cache_hits_total")) / float64(n)
	}
	if clk.calls > 0 {
		out["specs_per_call"] = float64(clk.items) / float64(clk.calls)
	}
	for name, s := range recorders {
		specs := make([]targeting.Spec, len(s.got))
		for i, g := range s.got {
			specs[i] = g.spec
		}
		out[name] = summarise(specs)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
