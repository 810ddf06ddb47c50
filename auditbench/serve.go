package main

import (
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/adapi"
	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/snapshot"
	"repro/internal/targeting"
)

const (
	serveUniverse = 1 << 19
	// batchesPerSecond sets a run's fixed work: --seconds times this many
	// batches, about --seconds of wall time on the reference host.
	batchesPerSecond = 120
	// setupRepeats is the number of extra set-ups timed in child processes;
	// setup_s is the median over them and the run's own set-up.
	setupRepeats = 4
	// serveProcs is GOMAXPROCS while the batches run. One client keeps one
	// request in flight, so a second processor only adds hand-offs between
	// client and server goroutines across vCPUs, each of which waits when
	// the hypervisor has taken the other vCPU.
	serveProcs = 1
	snapFile   = "serve.snap"
	refFile    = "serve.ref"
)

// serveDialects are the interfaces the clients speak to, one per adapi
// dialect.
var serveDialects = []string{catalog.PlatformFacebook, catalog.PlatformGoogle, catalog.PlatformLinkedIn}

func dialectsOf(d *platform.Deployment) ([]dialect, error) {
	var out []dialect
	for _, name := range serveDialects {
		p, err := d.ByName(name)
		if err != nil {
			return nil, err
		}
		c := p.Catalog()
		out = append(out, dialect{
			name:             name,
			attrs:            len(c.Attributes),
			topics:           len(c.Topics),
			andWithinFeature: p.MeasurementRules().AndWithinFeature,
		})
	}
	return out, nil
}

// prepareMain is the untimed preparation, run as a child process so its
// memory never counts toward the measured process's peak RSS: it builds
// the 2^19-user deployment, records the serial door's answer for every pool
// spec, and writes the snapshot the timed part boots from.
func prepareMain(args []string) error {
	fl := flag.NewFlagSet("prepare-snapshot", flag.ContinueOnError)
	out := fl.String("out", "", "directory to write the snapshot and reference answers into")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return errors.New("prepare-snapshot: -out is required")
	}
	opts := platform.DeployOptions{UniverseSize: serveUniverse, Metrics: obs.NewRegistry()}
	d, err := platform.NewDeployment(opts)
	if err != nil {
		return err
	}
	warmAll(d.Interfaces())
	ds, err := dialectsOf(d)
	if err != nil {
		return err
	}
	ref := make([]int64, len(ds)*poolSize)
	for di, dl := range ds {
		p, _ := d.ByName(dl.name)
		if err := parallelRange(poolSize, func(i int) error {
			v, err := p.Measure(platform.EstimateRequest{Spec: poolSpec(dl, di, i)})
			if err != nil {
				return fmt.Errorf("%s pool spec %d: %w", dl.name, i, err)
			}
			ref[di*poolSize+i] = v
			return nil
		}); err != nil {
			return err
		}
	}
	if _, err := snapshot.WriteDeployment(filepath.Join(*out, snapFile), d, opts); err != nil {
		return err
	}
	return writeRef(filepath.Join(*out, refFile), ref)
}

// parallelRange calls fn(i) for i in [0, n) on two workers.
func parallelRange(n int, fn func(i int) error) error {
	const workers = 2
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				if err := fn(i); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func writeRef(path string, ref []int64) error {
	buf := make([]byte, 8*len(ref))
	for i, v := range ref {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
	}
	return os.WriteFile(path, buf, 0o644)
}

func readRef(path string, n int) ([]int64, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(buf) != 8*n {
		return nil, fmt.Errorf("%s holds %d bytes, want %d", path, len(buf), 8*n)
	}
	ref := make([]int64, n)
	for i := range ref {
		ref[i] = int64(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return ref, nil
}

// preparedDir returns the directory holding this source tree's snapshot
// and reference answers, running the preparation first if it is missing.
// The directory is keyed by the source digest, so a checkout prepares once
// and a changed tree never boots a stale snapshot.
func preparedDir(cfg runConfig) (string, error) {
	dir := filepath.Join(cfg.workDir, "serve-"+cfg.digest[:16])
	if _, err := os.Stat(filepath.Join(dir, refFile)); err == nil {
		return dir, nil
	} else if !errors.Is(err, fs.ErrNotExist) {
		return "", err
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return "", err
	}
	tmp, err := os.MkdirTemp(cfg.workDir, "prepare-")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(tmp)
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	cmd := exec.Command(self, "prepare-snapshot", "-out", tmp)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("preparing snapshot: %w", err)
	}
	if err := os.Rename(tmp, dir); err != nil {
		return "", err
	}
	// Snapshots prepared for earlier source trees are stale; each is a few
	// hundred MiB.
	stale, _ := filepath.Glob(filepath.Join(cfg.workDir, "serve-*")) // the pattern is well formed
	for _, old := range stale {
		if old != dir {
			if err := os.RemoveAll(old); err != nil {
				return "", err
			}
		}
	}
	return dir, nil
}

// serving is the serve-snapshot set-up: the snapshot deployment behind an
// adapi server on loopback, and the client.
type serving struct {
	info           *snapshot.Info
	ds             []dialect
	ref            []int64
	sc             *serverClock
	client         *serveClient
	loadS, warmupS float64
	close          func()
}

// startServing loads the prepared snapshot, touches every option once,
// and starts the server and the client: the timed set-up.
func startServing(dir string, reg *obs.Registry, trace bool) (*serving, error) {
	start := time.Now()
	d, info, err := snapshot.LoadDeployment(filepath.Join(dir, snapFile), platform.DeployOptions{UniverseSize: serveUniverse, Metrics: reg})
	if err != nil {
		return nil, err
	}
	s := &serving{info: info, sc: &serverClock{}, loadS: time.Since(start).Seconds()}
	start = time.Now()
	if err := touchEveryOption(d); err != nil {
		return nil, err
	}
	s.warmupS = time.Since(start).Seconds()
	if s.ds, err = dialectsOf(d); err != nil {
		return nil, err
	}
	if s.ref, err = readRef(filepath.Join(dir, refFile), len(s.ds)*poolSize); err != nil {
		return nil, err
	}
	srv, err := adapi.NewServer(d, adapi.ServerOptions{Metrics: reg, Snapshot: info})
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if trace {
		h = wrapHandler(h, s.sc)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx) // the run is over; a slow close only delays exit
		<-served
	}
	if s.client, err = newServeClient("http://"+ln.Addr().String(), s.ds); err != nil {
		stop()
		return nil, err
	}
	s.close = func() {
		s.client.transport.CloseIdleConnections()
		stop()
	}
	return s, nil
}

// setupMain times one serve-snapshot set-up in its own process, so that
// repeated set-ups neither share warmed state with the measured process
// nor add their mappings to its peak RSS, and prints the seconds.
func setupMain(args []string) error {
	fl := flag.NewFlagSet("serve-setup", flag.ContinueOnError)
	dir := fl.String("dir", "", "prepared snapshot directory")
	if err := fl.Parse(args); err != nil {
		return err
	}
	start := time.Now()
	s, err := startServing(*dir, obs.NewRegistry(), false)
	if err != nil {
		return err
	}
	secs := time.Since(start).Seconds()
	s.close()
	_, err = fmt.Println(secs)
	return err
}

// childSetups runs setupRepeats serve-snapshot set-ups in child processes,
// one at a time, and returns their times.
func childSetups(dir string) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var secs []float64
	for i := 0; i < setupRepeats; i++ {
		cmd := exec.Command(self, "serve-setup", "-dir", dir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		secs = append(secs, v)
	}
	return secs, nil
}

func runServe(cfg runConfig, m *meter) (*result, error) {
	dir, err := preparedDir(cfg)
	if err != nil {
		return nil, err
	}
	setups, err := childSetups(dir)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	m.startSetup()
	s, err := startServing(dir, reg, cfg.trace)
	if err != nil {
		return nil, err
	}
	defer s.close()
	st := newStream(s.ds, cfg.seed, batchSpecs)
	m.setupDone()

	// A fixed number of batches, set by --seconds alone, so every run does
	// the same work.
	batches := cfg.seconds * batchesPerSecond
	c := s.client
	var quarters []float64
	prevProcs := runtime.GOMAXPROCS(serveProcs)
	start := time.Now()
	for b := 0; b < batches; b++ {
		c.exchange(st, b, s.ref)
		if (b+1)%(batches/4) == 0 {
			quarters = append(quarters, time.Since(start).Seconds())
		}
	}
	m.runDone()
	runtime.GOMAXPROCS(prevProcs)

	res := newResult(m, c.attempted, c.failed)
	res.record["serve_gomaxprocs"] = serveProcs
	setups = append(setups, res.setup.Seconds())
	res.e2e["setup_s"] = median(setups)
	res.e2e["queries_per_s"] = windowRate(c.lat, c.answered)
	res.e2e["batch_p50_ms"] = rankMs(c.lat, 0.50)
	res.record["batch_p99_ms"] = rankMs(c.lat, 0.99)
	if c.wrong > 0 {
		res.problems = append(res.problems, fmt.Sprintf("%d slots answered differently from the built deployment's serial door", c.wrong))
	}
	if len(c.failures) > 0 {
		res.record["failure_examples"] = c.failures
	}
	res.record["batches"] = len(c.lat)
	res.record["clients"] = 1
	res.record["unique_pool_wrapped"] = c.wrapped
	res.record["setups_s"] = setups
	res.record["run_quarters_s"] = quarters

	res.layers["snapshot.load_s"] = s.loadS
	res.layers["snapshot.warmup_s"] = s.warmupS
	res.layers["snapshot.file_mb"] = float64(s.info.FileSize) / (1 << 20)
	var clientS time.Duration
	for _, d := range c.lat {
		clientS += d
	}
	res.layers["adapi.client_s"] = clientS.Seconds()
	platformLayers(res, reg)
	if cfg.trace {
		sc := s.sc
		sc.mu.Lock()
		defer sc.mu.Unlock()
		res.layers["adapi.server_s"] = sc.sum.Seconds()
		res.layers["adapi.wire_s"] = (clientS - sc.sum).Seconds()
		if c.attempted > 0 {
			res.layers["adapi.request_bytes_per_spec"] = float64(sc.reqBytes) / float64(c.attempted)
			res.layers["adapi.response_bytes_per_spec"] = float64(sc.respBytes) / float64(c.attempted)
		}
		if sc.requests != int64(len(c.lat)) {
			res.problems = append(res.problems, fmt.Sprintf("server saw %d measure-batch requests for %d client batches", sc.requests, len(c.lat)))
		}
	}
	return res, nil
}

// touchEveryOption measures every catalog option of every interface once,
// in-process, so the timed run starts with the mapped option pages
// resident.
func touchEveryOption(d *platform.Deployment) error {
	for _, p := range d.Interfaces() {
		c := p.Catalog()
		var reqs []platform.EstimateRequest
		for i := range c.Attributes {
			reqs = append(reqs, platform.EstimateRequest{Spec: targeting.Attr(i)})
		}
		for i := range c.Topics {
			reqs = append(reqs, platform.EstimateRequest{Spec: targeting.Topic(i)})
		}
		for i := range c.Placements {
			reqs = append(reqs, platform.EstimateRequest{Spec: targeting.Placement(i)})
		}
		out, err := p.MeasureMany(reqs)
		if err != nil {
			return fmt.Errorf("warm-up on %s: %w", p.Name(), err)
		}
		for i := range out {
			if out[i].Err != nil {
				return fmt.Errorf("warm-up on %s: %s: %w", p.Name(), targeting.Canonical(reqs[i].Spec), out[i].Err)
			}
		}
	}
	return nil
}

// serveClient is the closed-loop client: one adapi.Client per dialect over
// one keep-alive transport, sending its next batch only after the previous
// answer arrived.
type serveClient struct {
	transport *http.Transport
	clients   []*adapi.Client
	requests  []*obs.Histogram // per dialect: HTTP attempts the client made

	lat       []time.Duration
	answered  []int64 // per batch: slots answered without error
	attempted int64
	failed    int64
	wrong     int64
	wrapped   bool
	failures  []string // the first few failed slots, for the run record
}

func newServeClient(base string, ds []dialect) (*serveClient, error) {
	tr := &http.Transport{MaxIdleConnsPerHost: len(ds)}
	hc := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	reg := obs.NewRegistry()
	sc := &serveClient{transport: tr}
	for _, dl := range ds {
		c, err := adapi.NewClient(context.Background(), base, dl.name, adapi.ClientOptions{HTTPClient: hc, Metrics: reg})
		if err != nil {
			tr.CloseIdleConnections()
			return nil, err
		}
		sc.clients = append(sc.clients, c)
		sc.requests = append(sc.requests, reg.Histogram("adapi_client_request_seconds", obs.L("platform", dl.name)))
	}
	return sc, nil
}

// exchange sends batch b and checks every slot against the reference
// answers. A batch that took other than exactly one HTTP exchange (a
// retry, or the client's serial fallback) counts all its slots as failed:
// the run must measure the batch door.
func (c *serveClient) exchange(st *stream, b int, ref []int64) {
	di, idx, specs, wraps := st.specs(b)
	c.wrapped = c.wrapped || wraps
	before := c.requests[di].Count()
	start := time.Now()
	out := c.clients[di].MeasureMany(specs)
	c.lat = append(c.lat, time.Since(start))
	c.attempted += int64(len(specs))
	if n := c.requests[di].Count() - before; n != 1 {
		c.failed += int64(len(specs))
		c.answered = append(c.answered, 0)
		c.noteFailure(fmt.Sprintf("batch %d took %d HTTP exchanges", b, n))
		return
	}
	ok := int64(len(specs))
	defer func() { c.answered = append(c.answered, ok) }()
	for k := range out {
		switch {
		case out[k].Err != nil:
			c.failed++
			ok--
			c.noteFailure(fmt.Sprintf("%s slot: %v", st.dialects[di].name, out[k].Err))
		case out[k].Size != ref[di*poolSize+idx[k]]:
			c.wrong++
		}
	}
}

func (c *serveClient) noteFailure(msg string) {
	if len(c.failures) < 5 {
		c.failures = append(c.failures, msg)
	}
}
