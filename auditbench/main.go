// Command auditbench is the repository's benchmark: it runs one audit
// workload in this process, checks its outputs, and prints one JSON result
// line. See README.md for the workloads, metrics and reference figures.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	auditbench --workload repro|serve-snapshot|audit-cluster --seed N --seconds S --trace 0|1
//	auditbench spread --workload NAME --runs N [--seed0 N] [--seconds S] [--trace 0|1]
//	auditbench specmix
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported metric: name and unit, as BENCHMARK.json lists it.
type metric struct{ name, unit string }

// endToEnd are the metrics an auditor or API user sees, printed with
// --trace 0.
var endToEnd = []metric{
	{"setup_s", "s"}, {"run_s", "s"}, {"cpu_s", "s"}, {"peak_rss_mb", "MiB"},
	{"queries_per_s", "1/s"}, {"batch_p50_ms", "ms"},
}

// perLayer are the layer metrics, printed with --trace 1. A layer a
// workload does not exercise reads 0.
var perLayer = []metric{
	{"population.warm_s", "s"}, {"population.users_per_s", "1/s"},
	{"snapshot.load_s", "s"}, {"snapshot.warmup_s", "s"}, {"snapshot.file_mb", "MiB"},
	{"experiments.methodology_s", "s"}, {"experiments.rounding_s", "s"},
	{"experiments.fig1_s", "s"}, {"experiments.fig2_s", "s"}, {"experiments.fig3_s", "s"},
	{"experiments.fig4_s", "s"}, {"experiments.fig5_s", "s"}, {"experiments.fig6_s", "s"},
	{"experiments.tab1_s", "s"}, {"experiments.tab2_s", "s"}, {"experiments.tab3_s", "s"},
	{"experiments.mitigation_s", "s"}, {"experiments.lookalike_s", "s"},
	{"experiments.delivery_s", "s"}, {"experiments.retarget_s", "s"},
	{"core.upstream_calls", "count"}, {"core.upstream_specs", "count"}, {"core.upstream_s", "s"},
	{"core.self_s", "s"}, {"core.cache_hit_ratio", "ratio"}, {"core.cache_lookups", "count"},
	{"platform.us_per_spec", "us"}, {"platform.plans_compiled", "count"},
	{"platform.plan_cache_hit_ratio", "ratio"}, {"platform.plan_cache_lookups", "count"},
	{"adapi.client_s", "s"}, {"adapi.server_s", "s"}, {"adapi.wire_s", "s"},
	{"adapi.request_bytes_per_spec", "B"}, {"adapi.response_bytes_per_spec", "B"},
	{"cluster.coord_s", "s"}, {"cluster.shard_s", "s"}, {"cluster.shard_calls", "count"},
	{"cluster.overhead_s", "s"}, {"cluster.straggler_ratio", "ratio"},
	{"runtime.alloc_gb", "GiB"}, {"runtime.gc_cycles", "count"},
}

type runConfig struct {
	workload   string
	seed       uint64
	seconds    int
	trace      bool
	resultsDir string
	workDir    string
	digest     string
}

var workloads = map[string]func(runConfig, *meter) (*result, error){
	"repro":          runRepro,
	"serve-snapshot": runServe,
	"audit-cluster":  runCluster,
}

// meter takes the process-level readings around set-up and run.
type meter struct {
	t0, t1, t2 time.Time
	cpu0, cpu2 time.Duration
	mem0, mem2 runtime.MemStats
	peakKiB    int64
	majflt     int64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (m *meter) startSetup() {
	runtime.ReadMemStats(&m.mem0)
	m.cpu0 = cpuTime()
	m.t0 = time.Now()
}

func (m *meter) setupDone() { m.t1 = time.Now() }

func (m *meter) runDone() {
	m.t2 = time.Now()
	m.cpu2 = cpuTime()
	runtime.ReadMemStats(&m.mem2)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		m.peakKiB = ru.Maxrss // KiB on Linux
		m.majflt = ru.Majflt
	}
}

// result is one workload run.
type result struct {
	attempted, failed int64
	setup, run        time.Duration
	e2e               map[string]float64
	layers            map[string]float64
	problems          []string // failed output checks
	record            map[string]any
}

func newResult(m *meter, attempted, failed int64) *result {
	r := &result{
		attempted: attempted,
		failed:    failed,
		setup:     m.t1.Sub(m.t0),
		run:       m.t2.Sub(m.t1),
		e2e:       map[string]float64{},
		layers:    map[string]float64{},
		record:    map[string]any{},
	}
	r.e2e["setup_s"] = r.setup.Seconds()
	r.e2e["run_s"] = r.run.Seconds()
	r.e2e["cpu_s"] = (m.cpu2 - m.cpu0).Seconds()
	r.e2e["peak_rss_mb"] = float64(m.peakKiB) / 1024
	r.layers["runtime.alloc_gb"] = float64(m.mem2.TotalAlloc-m.mem0.TotalAlloc) / (1 << 30)
	r.layers["runtime.gc_cycles"] = float64(m.mem2.NumGC - m.mem0.NumGC)
	return r
}

// probe times a fixed xorshift loop: a host-speed reading taken before and
// after the workload, printed beside the metrics and never folded into
// them, so a run set on a slowed host can be recognised.
func probe() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 100_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	probeSink = x
	return time.Since(start).Seconds()
}

var probeSink uint64

// cpuStat reads the host's steal and total CPU ticks from /proc/stat, so
// the record shows how much of a run's CPU time the hypervisor took; both
// are 0 where /proc/stat is unreadable.
func cpuStat() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] { // user .. steal; guest time is already in user
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func hostModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from the checkout's .git directory, if there is one.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the module's Go sources and go.mod files, naming the
// code a run measured even in a checkout without git metadata.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || n == "results") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("auditbench: ")
	var err error
	switch {
	case len(os.Args) > 1 && os.Args[1] == "spread":
		err = spreadMain(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "specmix":
		err = specmixMain(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "serve-setup":
		err = setupMain(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "prepare-snapshot":
		err = prepareMain(os.Args[2:])
	default:
		err = benchMain(os.Args[1:])
	}
	if err != nil {
		log.Print(err)
		os.Exit(1)
	}
}

func benchMain(args []string) error {
	fl := flag.NewFlagSet("auditbench", flag.ContinueOnError)
	workload := fl.String("workload", "", "workload: repro, serve-snapshot or audit-cluster")
	seed := fl.Uint64("seed", 0, "input seed")
	seconds := fl.Int("seconds", 10, "run length: serve-snapshot sends seconds*120 batches; the audit workloads run one whole audit regardless")
	traceFlag := fl.Int("trace", 0, "1 wraps the layers and prints the per-layer metrics instead")
	resultsDir := fl.String("results", "results", "directory holding the committed paper artifacts")
	workDir := fl.String("work", filepath.Join(".bench_build", "work"), "scratch directory for the prepared snapshot")
	if err := fl.Parse(args); err != nil {
		return err
	}
	run, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	if _, err := os.Stat(*resultsDir); err != nil {
		return fmt.Errorf("reference artifacts: %w", err)
	}
	digest, err := sourceDigest(".")
	if err != nil {
		return fmt.Errorf("hashing sources: %w", err)
	}
	cfg := runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *traceFlag == 1,
		resultsDir: *resultsDir, workDir: *workDir, digest: digest,
	}
	probeBefore := probe()
	steal0, total0 := cpuStat()
	var m meter
	res, err := run(cfg, &m)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	steal1, total1 := cpuStat()
	probeAfter := probe()

	rec := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": *traceFlag,
		"attempted": res.attempted, "failed": res.failed,
		"host_model": hostModel(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(), "commit": gitCommit(), "source_sha256": digest,
		"probe_before_s": probeBefore, "probe_after_s": probeAfter,
		"run_total_s": res.run.Seconds(), "setup_s": res.setup.Seconds(),
		"major_faults": m.majflt,
	}
	if total1 > total0 {
		rec["host_steal_share"] = float64(steal1-steal0) / float64(total1-total0)
	}
	for k, v := range res.record {
		rec[k] = v
	}
	if len(res.problems) > 0 {
		rec["problems"] = res.problems
	}
	out := output{Correct: len(res.problems) == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	list, values := endToEnd, res.e2e
	if cfg.trace {
		list, values = perLayer, res.layers
	}
	for _, mt := range list {
		out.Metrics[mt.name] = metricValue{Value: values[mt.name], Unit: mt.unit}
	}
	for _, p := range res.problems {
		log.Printf("check failed: %s", p)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(map[string]any{"record": rec}); err != nil {
		return err
	}
	if err := enc.Encode(out); err != nil {
		return err
	}
	_, err = os.Stdout.Write(buf.Bytes())
	return err
}
