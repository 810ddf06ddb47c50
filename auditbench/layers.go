package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/targeting"
	"repro/internal/xrand"
)

// layerClock times the calls crossing one layer boundary. busy is the wall
// time during which at least one call was in flight (the part of a parent
// span its child calls cover), so a caller's self time is its own wall
// time minus busy even when calls overlap; sum adds every call's duration.
type layerClock struct {
	mu       sync.Mutex
	inFlight int
	since    time.Time
	busy     time.Duration
	sum      time.Duration
	calls    int64
	items    int64
	batches  int64 // calls of two or more specs
}

func (c *layerClock) begin() time.Time {
	now := time.Now()
	c.mu.Lock()
	if c.inFlight == 0 {
		c.since = now
	}
	c.inFlight++
	c.mu.Unlock()
	return now
}

func (c *layerClock) end(start time.Time, items int) {
	now := time.Now()
	d := now.Sub(start)
	c.mu.Lock()
	c.inFlight--
	if c.inFlight == 0 {
		c.busy += now.Sub(c.since)
	}
	c.sum += d
	c.calls++
	c.items += int64(items)
	if items > 1 {
		c.batches++
	}
	c.mu.Unlock()
}

// sampled is one measured spec and the size the provider answered.
type sampled struct {
	spec targeting.Spec
	size int64
}

// sampler keeps the measured specs whose content hash falls in a seeded
// 1/(mask+1) slice of hash space. The choice depends on the spec alone,
// never on call order, so concurrent audits sample the same specs.
type sampler struct {
	seed uint64
	mask uint64
	mu   sync.Mutex
	got  []sampled
}

func specHash(seed uint64, s targeting.Spec) uint64 {
	h := seed
	for _, part := range [][]targeting.Clause{s.Include, s.Exclude} {
		for _, cl := range part {
			for _, r := range cl {
				h = xrand.Mix(h, uint64(r.Kind)<<32|uint64(uint32(r.ID)))
			}
			h = xrand.Mix(h, ^uint64(0))
		}
		h = xrand.Mix(h, 1)
	}
	return h
}

func (s *sampler) offer(spec targeting.Spec, size int64, err error) {
	if s == nil || err != nil || specHash(s.seed, spec)&s.mask != 0 {
		return
	}
	s.mu.Lock()
	s.got = append(s.got, sampled{spec: spec, size: size})
	s.mu.Unlock()
}

func (s *sampler) offerMany(specs []targeting.Spec, out []core.BatchResult) {
	if s == nil {
		return
	}
	for i := range specs {
		s.offer(specs[i], out[i].Size, out[i].Err)
	}
}

// provBase wraps the provider below an auditor's measurement cache, timing
// every upstream call and sampling measured specs. The adapters below add
// exactly the optional measurer interfaces the wrapped provider has: core
// picks its batched, keyed and traced paths by type assertion, so a wrapper
// with a different method set would run a different program.
type provBase struct {
	inner  core.Provider
	clk    *layerClock
	sample *sampler
}

func (w *provBase) Name() string             { return w.inner.Name() }
func (w *provBase) AttributeNames() []string { return w.inner.AttributeNames() }
func (w *provBase) TopicNames() []string     { return w.inner.TopicNames() }
func (w *provBase) CrossFeature() bool       { return w.inner.CrossFeature() }

func (w *provBase) Measure(spec targeting.Spec) (int64, error) {
	t := w.clk.begin()
	v, err := w.inner.Measure(spec)
	w.clk.end(t, 1)
	w.sample.offer(spec, v, err)
	return v, err
}

type provCtx struct{ b *provBase }

func (w provCtx) MeasureCtx(ctx context.Context, spec targeting.Spec) (int64, error) {
	t := w.b.clk.begin()
	v, err := w.b.inner.(core.ContextMeasurer).MeasureCtx(ctx, spec)
	w.b.clk.end(t, 1)
	w.b.sample.offer(spec, v, err)
	return v, err
}

type provBatch struct{ b *provBase }

func (w provBatch) MeasureMany(specs []targeting.Spec) []core.BatchResult {
	t := w.b.clk.begin()
	out := w.b.inner.(core.BatchMeasurer).MeasureMany(specs)
	w.b.clk.end(t, len(specs))
	w.b.sample.offerMany(specs, out)
	return out
}

type provKeyed struct{ b *provBase }

func (w provKeyed) MeasureManyKeyed(specs []targeting.Spec, keys []string) []core.BatchResult {
	t := w.b.clk.begin()
	out := w.b.inner.(core.KeyedBatchMeasurer).MeasureManyKeyed(specs, keys)
	w.b.clk.end(t, len(specs))
	w.b.sample.offerMany(specs, out)
	return out
}

type provCtxBatch struct{ b *provBase }

func (w provCtxBatch) MeasureManyCtx(ctx context.Context, specs []targeting.Spec) []core.BatchResult {
	t := w.b.clk.begin()
	out := w.b.inner.(core.ContextBatchMeasurer).MeasureManyCtx(ctx, specs)
	w.b.clk.end(t, len(specs))
	w.b.sample.offerMany(specs, out)
	return out
}

type provKeyedCtx struct{ b *provBase }

func (w provKeyedCtx) MeasureManyKeyedCtx(ctx context.Context, specs []targeting.Spec, keys []string) []core.BatchResult {
	t := w.b.clk.begin()
	out := w.b.inner.(core.ContextKeyedBatchMeasurer).MeasureManyKeyedCtx(ctx, specs, keys)
	w.b.clk.end(t, len(specs))
	w.b.sample.offerMany(specs, out)
	return out
}

// provAll matches core's in-process platform provider: every measurer.
type provAll struct {
	*provBase
	provCtx
	provBatch
	provKeyed
	provCtxBatch
	provKeyedCtx
}

// provUnkeyed matches the cluster and adapi providers: traced and batched,
// without canonical keys.
type provUnkeyed struct {
	*provBase
	provCtx
	provBatch
	provCtxBatch
}

// wrapProvider wraps p for timing (clk) and optional spec sampling (s may
// be nil). It refuses method sets it has no matching wrapper for rather
// than silently dropping one.
func wrapProvider(p core.Provider, clk *layerClock, s *sampler) (core.Provider, error) {
	b := &provBase{inner: p, clk: clk, sample: s}
	_, ctx := p.(core.ContextMeasurer)
	_, batch := p.(core.BatchMeasurer)
	_, keyed := p.(core.KeyedBatchMeasurer)
	_, ctxBatch := p.(core.ContextBatchMeasurer)
	_, keyedCtx := p.(core.ContextKeyedBatchMeasurer)
	switch {
	case ctx && batch && keyed && ctxBatch && keyedCtx:
		return &provAll{b, provCtx{b}, provBatch{b}, provKeyed{b}, provCtxBatch{b}, provKeyedCtx{b}}, nil
	case ctx && batch && !keyed && ctxBatch && !keyedCtx:
		return &provUnkeyed{b, provCtx{b}, provBatch{b}, provCtxBatch{b}}, nil
	}
	return nil, fmt.Errorf("no wrapper for the measurer set of provider %s (ctx=%v batch=%v keyed=%v ctxBatch=%v keyedCtx=%v)",
		p.Name(), ctx, batch, keyed, ctxBatch, keyedCtx)
}

// scatterRec groups shard calls into coordinator batches. Every shard of
// one scatter receives the same request slice, so its first element's
// address identifies the batch while the batch is open.
type scatterRec struct {
	fanout int // shard calls per batch: shards holding primary partitions

	mu      sync.Mutex
	open    map[*platform.EstimateRequest]*shardBatch
	calls   int64
	specs   int64 // Σ requests over shard calls
	sum     time.Duration
	slowest time.Duration // Σ over batches of the slowest shard call
	ratios  []float64     // per batch: slowest / mean shard call
}

type shardBatch struct {
	n        int
	max, sum time.Duration
}

func (r *scatterRec) add(key *platform.EstimateRequest, specs int, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls++
	r.specs += int64(specs)
	r.sum += d
	b := r.open[key]
	if b == nil {
		b = &shardBatch{}
		r.open[key] = b
	}
	b.n++
	b.sum += d
	if d > b.max {
		b.max = d
	}
	if b.n == r.fanout {
		delete(r.open, key)
		r.slowest += b.max
		if mean := b.sum / time.Duration(b.n); mean > 0 {
			r.ratios = append(r.ratios, float64(b.max)/float64(mean))
		}
	}
}

// connWrap times one shard's CountBatch calls as the coordinator makes them.
type connWrap struct {
	inner cluster.Conn
	rec   *scatterRec
}

func (c *connWrap) ID() string { return c.inner.ID() }

func (c *connWrap) CountBatch(ctx context.Context, iface string, door platform.Door, parts []uint32, reqs []platform.EstimateRequest) ([]platform.RawCount, error) {
	start := time.Now()
	res, err := c.inner.CountBatch(ctx, iface, door, parts, reqs)
	if len(reqs) > 0 {
		c.rec.add(&reqs[0], len(reqs), time.Since(start))
	}
	return res, err
}

// hashingConn is connWrap for conns that also report a catalog hash, which
// the coordinator's preflight asks for.
type hashingConn struct{ *connWrap }

func (c hashingConn) CatalogHash() (string, error) {
	return c.inner.(cluster.CatalogHasher).CatalogHash()
}

func wrapConn(cn cluster.Conn, rec *scatterRec) cluster.Conn {
	w := &connWrap{inner: cn, rec: rec}
	if _, ok := cn.(cluster.CatalogHasher); ok {
		return hashingConn{w}
	}
	return w
}

// serverClock times the adapi server's measure-batch exchanges and counts
// their bytes on the wire.
type serverClock struct {
	mu        sync.Mutex
	sum       time.Duration
	requests  int64
	reqBytes  int64
	respBytes int64
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (w *countingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func wrapHandler(h http.Handler, sc *serverClock) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/measure-batch") {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		d := time.Since(start)
		sc.mu.Lock()
		sc.sum += d
		sc.requests++
		sc.reqBytes += r.ContentLength
		sc.respBytes += cw.n
		sc.mu.Unlock()
	})
}

// median returns the middle value of xs (the mean of the two middle ones
// for even lengths); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rankMs returns the q-quantile of ds by nearest rank, in milliseconds.
func rankMs(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q * float64(len(s))))
	if k < 1 {
		k = 1
	}
	if k > len(s) {
		k = len(s)
	}
	return float64(s[k-1]) / float64(time.Millisecond)
}

// rateWindows is the number of equal slices of a batch series that
// windowRate takes the median over.
const rateWindows = 16

// windowRate splits a batch series into rateWindows slices of consecutive
// batches and returns the median over the slices of specs answered per
// second of batch time. A stall of the host slows one slice, not the
// median.
func windowRate(lat []time.Duration, answered []int64) float64 {
	var rates []float64
	for w := 0; w < rateWindows; w++ {
		lo, hi := w*len(lat)/rateWindows, (w+1)*len(lat)/rateWindows
		var t time.Duration
		var n int64
		for i := lo; i < hi; i++ {
			t += lat[i]
			n += answered[i]
		}
		if t > 0 {
			rates = append(rates, float64(n)/t.Seconds())
		}
	}
	return median(rates)
}
