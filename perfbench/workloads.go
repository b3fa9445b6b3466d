package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"versiondb/internal/repo"
	"versiondb/internal/solve"
	"versiondb/internal/store"
	"versiondb/internal/vcs"
	"versiondb/internal/workload"
)

// spec is one workload's fixed shape. Only the seed varies between runs.
type spec struct {
	name   string
	remote bool // store/remote tier instead of the in-memory backend
	raw    bool // checkouts through GET /checkout/raw instead of GET /checkout
	zipf   bool // Zipf-skewed checkout traffic instead of uniform
	commit bool // commit + re-layout traffic instead of checkouts
	scale  scale
	// minOps is the floor of measured operations (checkouts, or commits
	// for commit traffic) a run makes however fast it goes, so each p95
	// has at least ten samples beyond it; detOps is the fixed-length
	// prefix over which the deterministic store counters are taken.
	minOps, detOps, warmOps int
}

const (
	optimizeHops  = 5    // the repository's default differencing radius
	budgetFactor  = 1.25 // the repository's default lmg budget over the MST
	zipfExponent  = 1.2
	optimizeEvery = 16 // vmsd's -autotune-commits default
	// The machine's speed is sampled after every checkoutsPerTick measured
	// checkouts, or commitsPerTick commits (each with its read-back): a
	// few percent of the phase's time.
	checkoutsPerTick = 200
	commitsPerTick   = 4
	cycleCommits     = 2 * optimizeEvery
	commitTips       = 16
	// hotCachePercent is the hot_read cache budget in percent of the
	// logical bytes: the hit ratio lands between 0.75 and 0.9, so the
	// median checkout is a hit and the p95 a miss.
	hotCachePercent = 40
	// coldCachePayloads is the cold_remote version cache in mean payloads.
	coldCachePayloads = 4
	// commitCacheVersions is vmsd's default -cache.
	commitCacheVersions = 64
)

// fullScale is the dataset every workload runs on: forty-eight forks of
// ten versions, about 5 MiB of CSV. Tables are kept to sixty rows so that
// seven set-ups and the measured phase fit in one run; column adds and
// removes still change every line of a pair, and differencing such pairs
// stays the largest share of an Optimize (optimize.diff_s).
var fullScale = scale{Forks: 48, Versions: 480, Rows: 60, Cols: 20, OpsPerEdge: 1}

// specs are the workloads. The two that are not about the remote tier run
// on the in-memory backend (vmsd -backend mem): on a shared VM disk the
// metadata log's fsync made commit latency wander by a quarter at the
// median and two- to threefold at the tail between identical runs.
var specs = []spec{
	{
		name: "hot_read", raw: true, zipf: true,
		scale:  fullScale,
		minOps: 3000, detOps: 3000, warmOps: 500,
	},
	{
		name: "cold_remote", remote: true,
		scale:  fullScale,
		minOps: 1000, detOps: 1000, warmOps: 200,
	},
	{
		name: "commit_optimize", raw: true, commit: true,
		scale:  fullScale,
		minOps: 7 * cycleCommits, detOps: optimizeEvery,
	},
}

func lookup(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// bench is one run of one workload.
type bench struct {
	spec    spec
	seed    int64
	dur     time.Duration
	setups  int
	speed   speed // rescales every timing an end-to-end metric uses
	out     *outcome
	corrupt bool // self-test hook: tamper with one expected payload
}

// optResult is one Optimize call.
type optResult struct {
	storage, sumR float64
	took          time.Duration
	phases        map[string]time.Duration // traced calls only
	alloc         uint64                   // traced calls only
}

// optimize re-lays the repository out with lmg under the default budget,
// with telemetry weights off so the layout depends on the data alone.
// Untraced it is the synchronous POST /optimize; traced it calls the same
// repository directly, to observe phase boundaries through the public
// Progress callback.
func (b *bench) optimize(in *instance) (optResult, error) {
	t := in.tracer
	if t == nil {
		start := time.Now()
		resp, err := in.client.Optimize(vcs.OptimizeRequest{Solver: "lmg", NoAutoWeights: true})
		if err != nil {
			return optResult{}, err
		}
		return optResult{storage: resp.Storage, sumR: resp.SumR, took: time.Since(start)}, nil
	}
	res := optResult{phases: map[string]time.Duration{}}
	var phase string
	var mark time.Time
	progress := func(p string) {
		now := time.Now()
		if phase != "" {
			res.phases[phase] += now.Sub(mark)
		}
		phase, mark = p, now
	}
	id := t.begin("optimize")
	a0 := allocated()
	start := time.Now()
	r, err := in.repo.Optimize(context.Background(), repo.OptimizeOptions{
		Request:       solve.Request{Solver: "lmg"},
		NoAutoWeights: true,
		Progress:      progress,
	})
	res.took = time.Since(start)
	progress("")
	res.alloc = allocated() - a0
	t.end(id, res.took)
	if err != nil {
		return optResult{}, err
	}
	res.storage, res.sumR = r.Storage, r.SumR
	return res, nil
}

// configureCache installs the workload's checkout cache.
func (b *bench) configureCache(r *repo.Repo, d *data) {
	switch {
	case b.spec.commit:
		r.EnableCache(commitCacheVersions)
	case b.spec.remote:
		r.EnableCacheBytes(coldCachePayloads * d.logical / int64(len(d.payloads)))
	default:
		r.EnableCacheBytes(d.logical * hotCachePercent / 100)
	}
}

// setupResult is one set-up: a generated dataset loaded through the
// client, optimized once, and reopened over a fresh backend client.
type setupResult struct {
	tier    *tier
	inst    *instance // the reopened repository, served
	data    *data
	tips    map[string]int
	opt     optResult
	commits []time.Duration
	// compactions counts the metadata-log compactions of the load and the
	// Optimize.
	compactions int64
	dedup       float64
	took        time.Duration
	reopen      time.Duration
}

// setup makes one set-up. Its timings come back at the reference speed:
// the machine's speed is sampled before and after.
func (b *bench) setup(t *tracer) (*setupResult, error) {
	b.speed.ticks(speedWindow)
	start := time.Now()
	d, err := generate(b.spec.scale, b.seed)
	if err != nil {
		return nil, err
	}
	var tr *tier
	if b.spec.remote {
		if tr, err = newRemoteTier(t); err != nil {
			return nil, err
		}
	} else {
		tr = newMemTier()
	}
	s := &setupResult{tier: tr, data: d}
	fail := func(err error) (*setupResult, error) {
		_ = tr.close()
		return nil, fmt.Errorf("setup: %w", err)
	}
	in, _, err := open(tr, t, true)
	if err != nil {
		return fail(err)
	}
	b.configureCache(in.repo, d)
	if s.commits, s.tips, err = load(in.client, d, t); err != nil {
		_ = in.close()
		return fail(err)
	}
	if s.opt, err = b.optimize(in); err != nil {
		_ = in.close()
		return fail(err)
	}
	st, err := in.client.Stats()
	if err != nil {
		_ = in.close()
		return fail(err)
	}
	s.compactions = in.repo.Stats().Log.Compactions
	if st.Remote != nil {
		s.dedup = st.Remote.DedupRatio
		// The near-tier chunk cache holds half the stored bytes of the
		// layout in force, so steady-state checkouts keep fetching.
		tr.chunkCache = st.StoredBytes / 2
	}
	if err := in.close(); err != nil {
		return fail(err)
	}
	if s.inst, s.reopen, err = open(tr, t, false); err != nil {
		return fail(err)
	}
	b.configureCache(s.inst.repo, d)
	s.took = time.Since(start)
	b.speed.ticks(speedWindow / 2)
	s.took = b.speed.scale(s.took)
	s.opt.took = b.speed.scale(s.opt.took)
	for i, c := range s.commits {
		s.commits[i] = b.speed.scale(c)
	}
	return s, nil
}

func (s *setupResult) close() error {
	err := s.inst.close()
	if cerr := s.tier.close(); err == nil {
		err = cerr
	}
	return err
}

// phase is the measured part of a run.
type phase struct {
	checkouts, commits []time.Duration
	sizes              []int64 // payload bytes of each checkout
	opts               []optResult
	last               optResult // the re-layout in force at the end
	// det holds the store counters over the deterministic prefix: the
	// first detOps checkouts of a read workload, or the commits before
	// the first re-layout of commit_optimize. all sums every epoch.
	det, all    counters
	alloc       uint64  // bytes allocated inside the measured checkouts
	compactions int64   // metadata-log compactions in the first commit cycle
	heap        float64 // live heap at the end, MiB
	st          *vcs.StatsResponse
	rs          repo.Stats
	cache       store.CacheStats
}

// end records the state the phase leaves behind.
func (b *bench) end(p *phase, in *instance) {
	p.heap = liveHeapMiB()
	st, err := in.client.Stats()
	b.out.op(err)
	p.st = st
	p.rs = in.repo.Stats()
	p.cache = in.repo.CacheMetrics()
}

// picker draws the versions a checkout workload reads.
func (b *bench) picker(n int, seed int64) func() int {
	rng := rand.New(rand.NewSource(seed))
	if !b.spec.zipf {
		return func() int { return rng.Intn(n) }
	}
	w := workload.Zipf(n, zipfExponent, seed)
	cdf := make([]float64, n)
	var acc float64
	for i, x := range w {
		acc += x
		cdf[i] = acc
	}
	return func() int { return min(sort.SearchFloat64s(cdf, rng.Float64()*acc), n-1) }
}

// checkout fetches version v the workload's way and checks the bytes,
// timing only the call. kind labels the operation in the trace.
func (b *bench) checkout(in *instance, d *data, v int, buf *bytes.Buffer, kind string) (int, time.Duration) {
	id := in.tracer.begin(kind)
	start := time.Now()
	var payload []byte
	var err error
	if b.spec.raw {
		// No If-None-Match: every call transfers the payload, as
		// `vms checkout` does. The default transport asks for gzip.
		rc, _, cerr := in.client.CheckoutStream(v)
		if err = cerr; err == nil {
			buf.Reset()
			_, err = buf.ReadFrom(rc)
			if cerr := rc.Close(); err == nil {
				err = cerr
			}
			payload = buf.Bytes()
		}
	} else {
		payload, err = in.client.Checkout(v)
	}
	took := time.Since(start)
	in.tracer.end(id, took)
	if err == nil {
		err = d.check(v, payload)
	}
	b.out.op(err)
	return len(payload), took
}

// measured runs one timed checkout, adding it to p at the reference speed.
func (b *bench) measured(p *phase, in *instance, d *data, v int, buf *bytes.Buffer) {
	a0 := allocated()
	n, took := b.checkout(in, d, v, buf, "checkout")
	p.alloc += allocated() - a0
	p.checkouts = append(p.checkouts, b.speed.scale(took))
	p.sizes = append(p.sizes, int64(n))
}

// reads runs checkout traffic: warmOps untimed checkouts, then timed ones
// until the run's duration has passed and at least minOps were made.
func (b *bench) reads(in *instance, d *data) phase {
	warm := b.picker(len(d.payloads), b.seed+3)
	var buf bytes.Buffer
	for i := 0; i < b.spec.warmOps; i++ {
		b.checkout(in, d, warm(), &buf, "warmup")
	}
	pick := b.picker(len(d.payloads), b.seed+2)
	var p phase
	m := newMeter(in.repo)
	b.speed.ticks(speedWindow)
	start := time.Now()
	for i := 0; ; i++ {
		if i == b.spec.detOps {
			p.det = m.total()
		}
		if i >= b.spec.minOps && time.Since(start) >= b.dur {
			break
		}
		if i%checkoutsPerTick == checkoutsPerTick-1 {
			b.speed.tick()
		}
		b.measured(&p, in, d, pick(), &buf)
	}
	p.all = m.total()
	b.end(&p, in)
	return p
}

// cycles runs commit + re-layout traffic. Each cycle copies the post-setup
// repository, opens the copy, reads the branch tips once, and
// replays the same commit script: commit, read the new version back, and
// re-layout synchronously after every optimizeEvery commits. Every cycle
// is the same work, so the per-operation figures do not depend on how
// many cycles fit in the run.
func (b *bench) cycles(s *setupResult, script []pendingCommit, d *data, t *tracer) (phase, error) {
	var p phase
	base := len(s.data.payloads)
	var buf bytes.Buffer
	// The tips are warmed in a fixed order, so every cycle starts from
	// the same cache state.
	tips := make([]int, 0, len(s.tips))
	for _, v := range s.tips {
		tips = append(tips, v)
	}
	sort.Ints(tips)
	b.speed.ticks(speedWindow)
	start := time.Now()
	for cycle := 0; len(p.commits) < b.spec.minOps || time.Since(start) < b.dur; cycle++ {
		mem, err := s.tier.mem.clone()
		if err != nil {
			return p, err
		}
		in, _, err := open(&tier{mem: mem}, t, false)
		if err != nil {
			return p, err
		}
		b.configureCache(in.repo, s.data)
		for _, v := range tips {
			b.checkout(in, d, v, &buf, "warmup")
		}
		log0 := in.repo.Stats().Log.Compactions
		m := newMeter(in.repo)
		for i, pc := range script {
			id := t.begin("commit")
			t0 := time.Now()
			got, err := in.client.Commit(pc.branch, pc.payload, "commit")
			took := time.Since(t0)
			t.end(id, took)
			if err == nil && got != base+i {
				err = fmt.Errorf("commit %d came back as id %d, want %d", i, got, base+i)
			}
			b.out.op(err)
			p.commits = append(p.commits, b.speed.scale(took))
			b.measured(&p, in, d, base+i, &buf)
			if i%commitsPerTick == commitsPerTick-1 {
				b.speed.tick()
			}
			if (i+1)%optimizeEvery != 0 {
				continue
			}
			if cycle == 0 && i+1 == b.spec.detOps {
				p.det = m.total()
			}
			m.cut()
			opt, err := b.optimize(in)
			b.out.op(err)
			b.speed.tick()
			opt.took = b.speed.scale(opt.took)
			m.restart()
			p.opts = append(p.opts, opt)
			p.last = opt
		}
		p.all = p.all.plus(m.total(), 1)
		if cycle == 0 {
			p.compactions = in.repo.Stats().Log.Compactions - log0
		}
		b.end(&p, in)
		if err := in.close(); err != nil {
			return p, err
		}
	}
	return p, nil
}
