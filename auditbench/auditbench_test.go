package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/adapi"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/platform"
)

const testUniverse = 1 << 13

func testDeployment(t *testing.T, compressed bool) *platform.Deployment {
	t.Helper()
	d, err := platform.NewDeployment(platform.DeployOptions{UniverseSize: testUniverse, Compressed: compressed, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestStreamDeterministicInSeed(t *testing.T) {
	ds, err := dialectsOf(testDeployment(t, false))
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := newStream(ds, 7, batchSpecs), newStream(ds, 7, batchSpecs), newStream(ds, 8, batchSpecs)
	differs := false
	for i := 0; i < 100; i++ {
		dA, idxA, specsA, _ := a.specs(i)
		dB, idxB, specsB, _ := b.specs(i)
		if dA != dB || !reflect.DeepEqual(idxA, idxB) || !reflect.DeepEqual(specsA, specsB) {
			t.Fatalf("seed 7 gave two different batches %d", i)
		}
		_, idxC, _ := c.batch(i)
		differs = differs || !reflect.DeepEqual(idxA, idxC)
	}
	if !differs {
		t.Fatal("seeds 7 and 8 gave the same stream")
	}
}

func TestStreamUniqueSlotsDoNotRepeat(t *testing.T) {
	ds := []dialect{{name: "x", attrs: 10}, {name: "y", attrs: 10}, {name: "z", attrs: 10}}
	st := newStream(ds, 3, doorSpecs)
	seen := map[[2]int]bool{}
	hot := 0
	const batches = doorBatches
	for b := 0; b < batches; b++ {
		di, idx, wraps := st.batch(b)
		if wraps {
			t.Fatal("unique pool wrapped within the door series")
		}
		for _, i := range idx {
			if i >= poolUnique {
				hot++
				continue
			}
			if seen[[2]int{di, i}] {
				t.Fatalf("unique pool spec %d of dialect %d sent twice", i, di)
			}
			seen[[2]int{di, i}] = true
		}
	}
	if want := batches * doorSpecs * hotSlots / batchSpecs; hot != want {
		t.Fatalf("%d hot slots, want %d", hot, want)
	}
}

// TestPoolMatchesMeasuredMix checks that the generated pool has the spec
// shares specgen.go's constants record.
func TestPoolMatchesMeasuredMix(t *testing.T) {
	ds, err := dialectsOf(testDeployment(t, false))
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	for di, dl := range ds {
		counts := map[string]int{}
		for i := 0; i < n; i++ {
			shape := specShape(poolSpec(dl, di, i))
			counts[shape]++
			opts, _, _ := strings.Cut(strings.TrimPrefix(shape, "options="), " ")
			counts[fmt.Sprint("options:", strings.Count(opts, "+"))]++
			_, class, _ := strings.Cut(shape, "class=")
			class, _, _ = strings.Cut(class, " ")
			counts["class:"+class]++
		}
		share := func(key string) int { return counts[key] * 1000 / n }
		near := func(what string, got, want int) {
			if got < want-10 || got > want+10 {
				t.Errorf("%s: %s is %d per mille, want %d", dl.name, what, got, want)
			}
		}
		near("gender class", share("class:gender"), classGender)
		near("no class", share("class:none"), classNone)
		if dl.andWithinFeature {
			near("singles", share("options:0"), singleWithin)
			near("wide conjunctions", share("options:3"), wideWithin)
		} else {
			near("singles", share("options:0"), singleCross)
		}
	}
}

func TestPoolSpecsValid(t *testing.T) {
	d := testDeployment(t, false)
	ds, err := dialectsOf(d)
	if err != nil {
		t.Fatal(err)
	}
	for di, dl := range ds {
		p, _ := d.ByName(dl.name)
		for i := 0; i < poolSize; i += 37 {
			if err := p.MeasurementRules().Validate(poolSpec(dl, di, i)); err != nil {
				t.Fatalf("%s pool spec %d: %v", dl.name, i, err)
			}
		}
	}
}

// methodSet lists which optional interfaces v implements.
func methodSet(v any) []string {
	var out []string
	if _, ok := v.(core.ContextMeasurer); ok {
		out = append(out, "ContextMeasurer")
	}
	if _, ok := v.(core.BatchMeasurer); ok {
		out = append(out, "BatchMeasurer")
	}
	if _, ok := v.(core.KeyedBatchMeasurer); ok {
		out = append(out, "KeyedBatchMeasurer")
	}
	if _, ok := v.(core.ContextBatchMeasurer); ok {
		out = append(out, "ContextBatchMeasurer")
	}
	if _, ok := v.(core.ContextKeyedBatchMeasurer); ok {
		out = append(out, "ContextKeyedBatchMeasurer")
	}
	if _, ok := v.(cluster.CatalogHasher); ok {
		out = append(out, "CatalogHasher")
	}
	return out
}

func testCluster(t *testing.T, trace bool) (*cluster.Coordinator, []*cluster.Shard) {
	t.Helper()
	opts := platform.DeployOptions{UniverseSize: testUniverse, Compressed: true, Metrics: obs.NewRegistry()}
	ring, err := cluster.NewRing([]string{"a", "b", "c"}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := cluster.NewLayout(ring, testUniverse, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	rec := &scatterRec{open: map[*platform.EstimateRequest]*shardBatch{}}
	var shards []*cluster.Shard
	var conns []cluster.Conn
	for _, n := range ring.Nodes() {
		s, err := cluster.NewShard(n, layout, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(layout.PrimaryPartitions(n)) > 0 {
			rec.fanout++
		}
		shards = append(shards, s)
		var cn cluster.Conn = s
		if trace {
			cn = wrapConn(s, rec)
		}
		conns = append(conns, cn)
	}
	coord, err := cluster.NewCoordinator(cluster.Options{Layout: layout, Conns: conns, Deploy: opts, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	return coord, shards
}

type plainConn struct{ cluster.Conn }

func TestWrappersKeepOptionalInterfaces(t *testing.T) {
	d := testDeployment(t, false)
	coord, shards := testCluster(t, false)
	cp, err := coord.Provider(d.Facebook.Name())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := adapi.NewServer(d, adapi.ServerOptions{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	client, err := adapi.NewClient(context.Background(), hs.URL, d.Facebook.Name(), adapi.ClientOptions{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]core.Provider{
		"platform": core.NewPlatformProvider(d.Facebook),
		"cluster":  cp,
		"adapi":    client,
	} {
		w, err := wrapProvider(p, &layerClock{}, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := methodSet(w), methodSet(p); !reflect.DeepEqual(got, want) {
			t.Errorf("%s provider wrapper implements %v, wrapped provider %v", name, got, want)
		}
	}
	rec := &scatterRec{open: map[*platform.EstimateRequest]*shardBatch{}}
	for name, cn := range map[string]cluster.Conn{
		"shard":      shards[0],
		"shard conn": adapi.NewShardConn("a", hs.URL, nil),
		"plain":      plainConn{shards[0]},
	} {
		if got, want := methodSet(wrapConn(cn, rec)), methodSet(cn); !reflect.DeepEqual(got, want) {
			t.Errorf("%s conn wrapper implements %v, wrapped conn %v", name, got, want)
		}
	}
}

// renderSome runs a few portable phases on r and returns their bytes.
func renderSome(t *testing.T, r *experiments.Runner) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	var rows artifactRows
	for _, ph := range phases {
		switch ph.name {
		case "rounding", "fig1", "fig3", "tab1":
		default:
			continue
		}
		var buf bytes.Buffer
		if err := ph.run(r, &buf, &rows); err != nil {
			t.Fatalf("%s: %v", ph.name, err)
		}
		out[ph.file] = buf.Bytes()
	}
	return out
}

func TestTracedArtifactsMatchUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the audit four times")
	}
	cfg := experiments.Config{K: 100, Seed: 1, Metrics: obs.NewRegistry()}

	plain := cfg
	plain.Deployment = testDeployment(t, false)
	r, err := experiments.NewRunner(plain)
	if err != nil {
		t.Fatal(err)
	}
	want := renderSome(t, r)

	wrapped := cfg
	clk := &layerClock{}
	for _, p := range testDeployment(t, false).Interfaces() {
		w, err := wrapProvider(core.NewPlatformProvider(p), clk, &sampler{mask: 0})
		if err != nil {
			t.Fatal(err)
		}
		wrapped.Providers = append(wrapped.Providers, w)
	}
	if r, err = experiments.NewRunner(wrapped); err != nil {
		t.Fatal(err)
	}
	if got := renderSome(t, r); !reflect.DeepEqual(got, want) {
		t.Fatal("artifacts through wrapped providers differ from the deployment runner's")
	}
	if clk.calls == 0 {
		t.Fatal("wrapped providers saw no calls")
	}

	for _, trace := range []bool{false, true} {
		coord, _ := testCluster(t, trace)
		c := cfg
		for _, p := range coord.Metadata().Interfaces() {
			cp, err := coord.Provider(p.Name())
			if err != nil {
				t.Fatal(err)
			}
			w, err := wrapProvider(cp, &layerClock{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			c.Providers = append(c.Providers, w)
		}
		if r, err = experiments.NewRunner(c); err != nil {
			t.Fatal(err)
		}
		if got := renderSome(t, r); !reflect.DeepEqual(got, want) {
			t.Fatalf("cluster artifacts (traced=%v) differ from the single node's", trace)
		}
	}
}

func TestSetAlgebraCheckCatchesWrongSize(t *testing.T) {
	d := testDeployment(t, false)
	p := d.Facebook
	s := &sampler{mask: 0}
	w, err := wrapProvider(core.NewPlatformProvider(p), &layerClock{}, s)
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := dialectsOf(d)
	spec := poolSpec(ds[0], 0, 5)
	if _, err := w.Measure(spec); err != nil {
		t.Fatal(err)
	}
	if len(s.got) != 1 {
		t.Fatalf("sampler kept %d specs with an all-pass mask", len(s.got))
	}
	if msg := checkSetAlgebra(p, s.got[0]); msg != "" {
		t.Fatal(msg)
	}
	bad := s.got[0]
	bad.size += 1000
	if checkSetAlgebra(p, bad) == "" {
		t.Fatal("a wrong size passed the set-algebra check")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v", got)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if got := quartiles([]float64{1, 2, 4}); got != [3]float64{1, 2, 4} {
		t.Fatalf("quartiles = %v", got)
	}
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	check := func(kind string, listed []m, prog []metric) {
		if len(listed) != len(prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program prints %d", kind, len(listed), len(prog))
			return
		}
		for i := range prog {
			if listed[i].Name != prog[i].name || listed[i].Unit != prog[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, listed[i].Name, listed[i].Unit, prog[i].name, prog[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
