package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mitigation"
	"repro/internal/population"
)

// artifactRows keeps the rows the shape checks read.
type artifactRows struct {
	fig1, fig2 []experiments.BoxRow
	tab1       []experiments.Table1Row
}

// phase is one paper artifact: the experiment that computes it and the
// render call cmd/figures writes it with (titles included, so the bytes
// match the committed results/ files).
type phase struct {
	name           string // experiments phase name, as in experiments.ExperimentNames
	file           string // artifact under results/
	deploymentOnly bool   // needs an in-process Deployment
	run            func(r *experiments.Runner, w *bytes.Buffer, rows *artifactRows) error
}

// phases lists the 15 artifacts in cmd/figures' order.
var phases = []phase{
	{"methodology", "methodology.txt", false, func(r *experiments.Runner, w *bytes.Buffer, _ *artifactRows) error {
		rows, err := r.Methodology(experiments.MethodologyConfig{GranularityCalls: 80000})
		if err != nil {
			return err
		}
		return experiments.RenderMethodology(w, rows)
	}},
	{"rounding", "rounding_bounds.txt", false, func(r *experiments.Runner, w *bytes.Buffer, _ *artifactRows) error {
		rows, err := r.RoundingBounds(core.GenderClass(population.Male))
		if err != nil {
			return err
		}
		return experiments.RenderRoundingBounds(w, rows)
	}},
	{"fig1", "figure1.txt", false, func(r *experiments.Runner, w *bytes.Buffer, a *artifactRows) error {
		rows, err := r.Figure1()
		if err != nil {
			return err
		}
		a.fig1 = rows
		return experiments.RenderBoxRows(w, "Figure 1: rep ratios on Facebook's restricted interface", rows)
	}},
	{"fig2", "figure2.txt", false, func(r *experiments.Runner, w *bytes.Buffer, a *artifactRows) error {
		rows, err := r.Figure2()
		if err != nil {
			return err
		}
		a.fig2 = rows
		return experiments.RenderBoxRows(w, "Figure 2: rep ratios on Facebook, Google, LinkedIn", rows)
	}},
	{"fig3", "figure3.txt", false, func(r *experiments.Runner, w *bytes.Buffer, _ *artifactRows) error {
		series, err := r.Figure3()
		if err != nil {
			return err
		}
		return experiments.RenderRemovalSeries(w, "Figure 3: removal sweep (gender)", series)
	}},
	{"fig4", "figure4.txt", false, func(r *experiments.Runner, w *bytes.Buffer, _ *artifactRows) error {
		rows, err := r.Figure4()
		if err != nil {
			return err
		}
		return experiments.RenderBoxRows(w, "Figure 4: rep ratios across age ranges", rows)
	}},
	{"fig5", "figure5.txt", false, func(r *experiments.Runner, w *bytes.Buffer, _ *artifactRows) error {
		rows, err := r.Figure5()
		if err != nil {
			return err
		}
		return experiments.RenderRecallRows(w, "Figure 5: recalls of skewed targetings", rows)
	}},
	{"fig6", "figure6.txt", false, func(r *experiments.Runner, w *bytes.Buffer, _ *artifactRows) error {
		series, err := r.Figure6()
		if err != nil {
			return err
		}
		return experiments.RenderRemovalSeries(w, "Figure 6: removal sweeps across age ranges", series)
	}},
	{"tab1", "table1.txt", false, func(r *experiments.Runner, w *bytes.Buffer, a *artifactRows) error {
		rows, err := r.Table1()
		if err != nil {
			return err
		}
		a.tab1 = rows
		return experiments.RenderTable1(w, rows)
	}},
	{"tab2", "table2.txt", false, func(r *experiments.Runner, w *bytes.Buffer, _ *artifactRows) error {
		rows, err := r.Table2(5)
		if err != nil {
			return err
		}
		return experiments.RenderExamples(w, "Table 2: illustrative gender-skewed compositions", rows)
	}},
	{"tab3", "table3.txt", false, func(r *experiments.Runner, w *bytes.Buffer, _ *artifactRows) error {
		rows, err := r.Table3(5)
		if err != nil {
			return err
		}
		return experiments.RenderExamples(w, "Table 3: illustrative age-skewed compositions", rows)
	}},
	{"lookalike", "ext_lookalike.txt", true, func(r *experiments.Runner, w *bytes.Buffer, _ *artifactRows) error {
		rows, err := r.LookalikeStudy(core.GenderClass(population.Male), 0, 0)
		if err != nil {
			return err
		}
		return experiments.RenderLookalikeRows(w, rows)
	}},
	{"mitigation", "ext_mitigation.txt", false, func(r *experiments.Runner, w *bytes.Buffer, _ *artifactRows) error {
		rows, err := r.MitigationStudy(core.GenderClass(population.Male), mitigation.EvalConfig{})
		if err != nil {
			return err
		}
		return experiments.RenderMitigationRows(w, rows)
	}},
	{"delivery", "ext_delivery.txt", true, func(r *experiments.Runner, w *bytes.Buffer, _ *artifactRows) error {
		rows, err := r.DeliveryStudy()
		if err != nil {
			return err
		}
		return experiments.RenderDeliveryRows(w, rows)
	}},
	{"retarget", "ext_retargeting.txt", true, func(r *experiments.Runner, w *bytes.Buffer, _ *artifactRows) error {
		rows, err := r.RetargetingStudy(core.GenderClass(population.Male))
		if err != nil {
			return err
		}
		return experiments.RenderRetargetingRows(w, rows)
	}},
}

// phaseRun is the outcome of running the artifacts once.
type phaseRun struct {
	seconds   map[string]float64 // phase name -> RunExperiment-plus-render wall time
	portableS float64            // Σ seconds over the phases on the provider runner
	artifacts map[string][]byte  // file -> rendered bytes
	rows      artifactRows
	attempted int
	failed    int
	errs      []string
}

// runPhases runs every phase in order: portable phases on runner, the
// deployment-only ones on depRunner (nil skips them, as a remote provider
// set must).
func runPhases(runner, depRunner *experiments.Runner) *phaseRun {
	pr := &phaseRun{seconds: map[string]float64{}, artifacts: map[string][]byte{}}
	for _, ph := range phases {
		r := runner
		if ph.deploymentOnly {
			if depRunner == nil {
				continue
			}
			r = depRunner
		}
		pr.attempted++
		var buf bytes.Buffer
		start := time.Now()
		err := ph.run(r, &buf, &pr.rows)
		secs := time.Since(start).Seconds()
		pr.seconds[ph.name] = secs
		if !ph.deploymentOnly {
			pr.portableS += secs
		}
		if err != nil {
			pr.failed++
			pr.errs = append(pr.errs, fmt.Sprintf("%s: %v", ph.name, err))
			continue
		}
		pr.artifacts[ph.file] = buf.Bytes()
	}
	return pr
}

// checkArtifacts compares every rendered artifact byte for byte with the
// committed file under resultsDir and checks the paper's shape claims
// (DESIGN.md §1) on the rows. It returns one line per failed check.
func checkArtifacts(pr *phaseRun, resultsDir string) []string {
	var bad []string
	for file, got := range pr.artifacts {
		want, err := os.ReadFile(filepath.Join(resultsDir, file))
		if err != nil {
			bad = append(bad, fmt.Sprintf("reading reference %s: %v", file, err))
			continue
		}
		if !bytes.Equal(got, want) {
			bad = append(bad, fmt.Sprintf("%s differs from %s", file, filepath.Join(resultsDir, file)))
		}
	}
	return append(bad, shapeChecks(pr.rows)...)
}

// shapeChecks evaluates the shape the reproduction must keep, from the
// artifact rows alone: composition amplifies skew (Top 2-way p90 above the
// individual p90), 3-way composition amplifies beyond 2-way (median), at
// least 90% of the top pairs fall outside the four-fifths bounds, and the
// Table 1 union recall is at least the top-1 recall.
func shapeChecks(a artifactRows) []string {
	var bad []string
	find := func(rows []experiments.BoxRow, platform, set, class string) (experiments.BoxRow, bool) {
		for _, r := range rows {
			if r.Platform == platform && r.Set == set && r.Class == class {
				return r, true
			}
		}
		return experiments.BoxRow{}, false
	}
	type panel struct {
		rows     []experiments.BoxRow
		platform string
	}
	panels := []panel{
		{a.fig1, catalog.PlatformFacebookRestricted},
		{a.fig2, catalog.PlatformFacebook},
		{a.fig2, catalog.PlatformGoogle},
		{a.fig2, catalog.PlatformLinkedIn},
	}
	for _, pn := range panels {
		ind, ok1 := find(pn.rows, pn.platform, experiments.SetIndividual, "male")
		top2, ok2 := find(pn.rows, pn.platform, experiments.SetTop2, "male")
		if !ok1 || !ok2 {
			bad = append(bad, fmt.Sprintf("shape: %s male rows missing", pn.platform))
			continue
		}
		if !(top2.Box.P90 > ind.Box.P90) {
			bad = append(bad, fmt.Sprintf("shape: %s Top 2-way p90 %.2f not above Individual p90 %.2f", pn.platform, top2.Box.P90, ind.Box.P90))
		}
		if top2.FracOutside < 0.9 {
			bad = append(bad, fmt.Sprintf("shape: %s only %.1f%% of Top 2-way outside four-fifths", pn.platform, 100*top2.FracOutside))
		}
		if top3, ok := find(pn.rows, pn.platform, experiments.SetTop3, "male"); ok && top3.Box.Median < top2.Box.Median {
			bad = append(bad, fmt.Sprintf("shape: %s Top 3-way median %.2f below Top 2-way median %.2f", pn.platform, top3.Box.Median, top2.Box.Median))
		}
	}
	if _, ok := find(a.fig1, catalog.PlatformFacebookRestricted, experiments.SetTop3, "male"); !ok {
		bad = append(bad, "shape: Figure 1 has no Top 3-way row")
	}
	if len(a.tab1) == 0 {
		bad = append(bad, "shape: Table 1 has no rows")
	}
	for _, r := range a.tab1 {
		if r.Top10Recall < r.Top1Recall {
			bad = append(bad, fmt.Sprintf("shape: Table 1 %s %s union recall %d below top-1 recall %d", r.Class, r.Platform, r.Top10Recall, r.Top1Recall))
		}
	}
	return bad
}
