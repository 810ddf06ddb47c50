package main

import (
	"repro/internal/population"
	"repro/internal/targeting"
	"repro/internal/xrand"
)

// The batch traffic is drawn from a fixed pool of audit-shaped specs per
// dialect. Pool spec i is a pure function of (poolSeed, dialect, i), so the
// preparation step can record a reference answer for every pool spec once
// per checkout, and each run's seed only decides which pool specs it sends
// and in what order.
const (
	poolSeed = 0x5eed_a0d1
	// poolUnique is the number of pool specs per dialect that runs draw
	// their unique slots from, without repeats within a run.
	poolUnique = 1 << 16
	// poolHot is the pool tail each run picks its hot battery from.
	poolHot  = 1 << 10
	poolSize = poolUnique + poolHot
	// batchSpecs is the number of specs in one measure-batch request.
	batchSpecs = 64
)

// The traffic mix, measured with `auditbench specmix` on the upstream spec
// stream of the 12 portable phases (README, "Traffic mix"). Shares are per
// mille of all specs.
const (
	// hotBattery: every interface sent exactly 40 distinct specs more than
	// once, each up to 101 times.
	hotBattery = 40
	// hotSlots of every batch repeat a battery spec: 1/64 = 1.6% against a
	// measured repeat share of 1.1-1.9%.
	hotSlots = 1
	// classGender and classNone: 16% of specs carry a gender clause, 20%
	// no class clause, the rest (64%) an age clause; values are uniform
	// within each kind.
	classGender = 160
	classNone   = 200
	// On dialects that compose attributes with attributes (Facebook,
	// LinkedIn): 2.8% singles, 3.1% conjunctions of four or more
	// attributes (drawn as four), the rest pairs.
	singleWithin = 28
	wideWithin   = 31
	wideOptions  = 4
	// On Google, which composes attributes only with topics: 6.7% singles,
	// of which 4.5% topics and 2.2% attributes, the rest attribute ∧ topic.
	topicSingleCross = 45
	singleCross      = 67
)

// dialect is one adapi dialect the batch traffic speaks, with the catalog
// sizes and composition rule the spec generator needs.
type dialect struct {
	name   string
	attrs  int
	topics int
	// andWithinFeature: compositions are attribute ∧ attribute; otherwise
	// attribute ∧ topic (Google composes only across features).
	andWithinFeature bool
}

// poolSpec returns pool spec i of dialect index di: an audit-shaped spec in
// the measured mix of option counts and class clauses, scoped to U.S. users
// the way core.Auditor scopes every measurement.
func poolSpec(d dialect, di int, i int) targeting.Spec {
	r := xrand.New(xrand.Mix(poolSeed, uint64(di), uint64(i)))
	var include []targeting.Clause
	add := func(kind targeting.Kind, id int) {
		include = append(include, targeting.Clause{{Kind: kind, ID: id}})
	}
	switch shape := r.Intn(1000); {
	case d.andWithinFeature:
		n := 2
		if shape < singleWithin {
			n = 1
		} else if shape < singleWithin+wideWithin {
			n = wideOptions
		}
		for _, a := range r.Sample(d.attrs, n) {
			add(targeting.KindAttribute, a)
		}
	case shape < topicSingleCross:
		add(targeting.KindTopic, r.Intn(d.topics))
	case shape < singleCross:
		add(targeting.KindAttribute, r.Intn(d.attrs))
	default:
		add(targeting.KindAttribute, r.Intn(d.attrs))
		add(targeting.KindTopic, r.Intn(d.topics))
	}
	switch c := r.Intn(1000); {
	case c < classGender:
		add(targeting.KindGender, r.Intn(population.NumGenders))
	case c < classGender+classNone:
	default:
		add(targeting.KindAge, r.Intn(population.NumAgeRanges))
	}
	add(targeting.KindLocation, int(population.RegionUS))
	return targeting.Spec{Include: include}
}

// stream is one run's seeded request sequence over the pool, in batches of
// size specs. Batch b goes to dialect b mod len(dialects); hotSlots in
// every batchSpecs of its slots are seeded picks from the dialect's hot
// battery, placed last, and the others take the dialect's next unique pool
// specs.
type stream struct {
	dialects []dialect
	size     int
	// mult and offset define the bijection j -> (mult*j + offset) mod
	// poolUnique that orders the unique pool specs of a run.
	mult, offset uint64
	hot          [][]int // per dialect: pool indices of the hot battery
	seed         uint64
}

func newStream(dialects []dialect, seed uint64, size int) *stream {
	r := xrand.New(xrand.Mix(seed, 0x57_4ea3))
	s := &stream{
		dialects: dialects,
		size:     size,
		mult:     r.Uint64() | 1, // odd, so invertible mod 2^16
		offset:   r.Uint64(),
		seed:     seed,
	}
	for range dialects {
		pick := r.Sample(poolHot, hotBattery)
		for k := range pick {
			pick[k] += poolUnique
		}
		s.hot = append(s.hot, pick)
	}
	return s
}

// batch returns batch b: the dialect index and the pool index of each
// slot. Unique slots never repeat within a run until a dialect's unique
// pool is exhausted (wraps reports that).
func (s *stream) batch(b int) (di int, idx []int, wraps bool) {
	nd := len(s.dialects)
	di = b % nd
	// Batches b and b+nd go to the same dialect, so the per-dialect batch
	// ordinal is b/nd.
	ordinal := uint64(b / nd)
	unique := uint64(s.size - s.size*hotSlots/batchSpecs)
	idx = make([]int, s.size)
	r := xrand.New(xrand.Mix(s.seed, uint64(b)))
	for k := range idx {
		if uint64(k) >= unique {
			idx[k] = s.hot[di][r.Intn(hotBattery)]
			continue
		}
		j := ordinal*unique + uint64(k)
		if j >= poolUnique {
			wraps = true
		}
		idx[k] = int((s.mult*j + s.offset) % poolUnique)
	}
	return di, idx, wraps
}

// specs returns the specs of batch b.
func (s *stream) specs(b int) (di int, idx []int, specs []targeting.Spec, wraps bool) {
	di, idx, wraps = s.batch(b)
	specs = make([]targeting.Spec, len(idx))
	for k, i := range idx {
		specs[k] = poolSpec(s.dialects[di], di, i)
	}
	return di, idx, specs, wraps
}
