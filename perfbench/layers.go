package main

import (
	"time"
)

// detCounters are the store counters a seed fixes: with one closed-loop
// client, an empty cache after the reopen and a sequential warm-up, the
// same operations meet the same cache and chunk-cache states. Hedges are
// left out — whether a fetch hedges depends on measured latency.
type detCounters struct {
	Hits, Misses, Evictions, Deltas, BlobReads int64
	ChunkFetches, ChunkHits, BytesFetched      int64
}

func (c counters) deterministic() detCounters {
	return detCounters{
		Hits: c.Hits, Misses: c.Misses, Evictions: c.Evictions, Deltas: c.Deltas, BlobReads: c.BlobReads,
		ChunkFetches: c.Tier.ChunkFetches, ChunkHits: c.Tier.ChunkHits, BytesFetched: c.Tier.BytesFetched,
	}
}

// opAgg sums the spans of one client operation by layer.
type opAgg struct {
	client, handler, get, put, log, remote time.Duration
	gets, puts, appends                    int
	getBytes, putBytes, appendBytes        int64
}

func aggregate(spans []span) opAgg {
	var a opAgg
	for _, s := range spans {
		switch s.name {
		case "client":
			a.client += s.dur
		case "vcs.handler":
			a.handler += s.dur
		case "backend.get":
			a.get += s.dur
			a.gets++
			a.getBytes += s.bytes
		case "backend.put":
			a.put += s.dur
			a.puts++
			a.putBytes += s.bytes
		case "metalog.append":
			a.log += s.dur
			a.appends++
			a.appendBytes += s.bytes
		case "metalog.truncate":
			a.log += s.dur
		case "remote.server":
			a.remote += s.dur
		}
	}
	return a
}

// self is the handler's time outside the backend and the metadata log:
// the repository's own work plus the HTTP handler around it.
func (a opAgg) self() time.Duration { return a.handler - a.get - a.put - a.log }

// perOp aggregates every operation of kind.
func (t *tracer) perOp(kind string) []opAgg {
	var out []opAgg
	for _, spans := range t.byReq(kind) {
		out = append(out, aggregate(spans))
	}
	return out
}

// medianMs is the median over ops of f, in milliseconds.
func medianMs(ops []opAgg, f func(opAgg) time.Duration) float64 {
	xs := make([]float64, len(ops))
	for i, a := range ops {
		xs[i] = ms(f(a))
	}
	return median(xs)
}

func total(ops []opAgg) opAgg {
	var t opAgg
	for _, a := range ops {
		t.get += a.get
		t.put += a.put
		t.log += a.log
		t.gets += a.gets
		t.puts += a.puts
		t.appends += a.appends
		t.getBytes += a.getBytes
		t.putBytes += a.putBytes
		t.appendBytes += a.appendBytes
	}
	return t
}

// spanDurations lists the durations of every span named name.
func (t *tracer) spanDurations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s.dur)
		}
	}
	return out
}

// perLayer reports the per-layer metrics: pa is the untraced pass, pb the
// traced one, opts the traced re-layouts, dedup the remote tier's upload
// dedup ratio, compactions the metadata-log compactions of a fixed stretch
// of work (the first commit cycle, or a read workload's load and Optimize)
// and reopen the set-ups' reopen times.
func (b *bench) perLayer(t *tracer, pa, pb phase, opts []optResult, dedup float64, compactions int64, reopen []time.Duration) {
	o := b.out
	co := t.perOp("checkout")
	cm := t.perOp("commit")
	nco, ncm := float64(len(co)), float64(len(cm))

	// vcs: server-side handler time and what the client adds around it.
	o.set("vcs.handler_ms", "ms", medianMs(co, func(a opAgg) time.Duration { return a.handler }))
	o.set("vcs.transport_ms", "ms", medianMs(co, func(a opAgg) time.Duration { return a.client - a.handler }))
	o.set("process.alloc_kib_per_checkout", "KiB", ratio(float64(pa.alloc)/1024, float64(len(pa.checkouts))))

	// repo: handler time outside the backend and the log.
	o.set("repo.checkout_self_ms", "ms", medianMs(co, opAgg.self))
	o.set("repo.commit_self_ms", "ms", medianMs(cm, opAgg.self))
	tco, tcm := total(co), total(cm)
	o.set("repo.commit_parent_gets", "count", ratio(float64(tcm.gets), ncm))

	// optimize: phase boundaries from the Progress callback.
	for _, ph := range []string{"snapshot", "diff", "solve", "rewrite", "warm", "swap"} {
		xs := make([]float64, len(opts))
		for i, r := range opts {
			xs[i] = r.phases[ph].Seconds()
		}
		o.set("optimize."+ph+"_s", "s", median(xs))
	}
	allocs := make([]float64, len(opts))
	for i, r := range opts {
		allocs[i] = float64(r.alloc) / (1 << 20)
	}
	o.set("optimize.alloc_mib", "MiB", median(allocs))

	// store: rates over the traced pass, summed per layout epoch.
	c := pb.det
	n := float64(b.spec.detOps)
	if b.spec.commit {
		c, n = pb.all, float64(len(pb.checkouts))
	}
	o.set("store.cache_hit_ratio", "ratio", ratio(float64(c.Hits), float64(c.Hits+c.Misses)))
	o.set("store.evictions_per_checkout", "count", ratio(float64(c.Evictions), n))
	o.set("store.deltas_per_checkout", "count", ratio(float64(c.Deltas), n))
	o.set("store.blob_reads_per_checkout", "count", ratio(float64(c.BlobReads), n))
	o.set("store.mean_chain_hops", "count", ratio(float64(pb.rs.SumChainHops), float64(pb.rs.Versions)))
	o.set("store.max_chain_hops", "count", float64(pb.rs.MaxChainHops))

	// backend: reads per checkout, writes per commit.
	o.set("backend.get_ms", "ms", ratio(ms(tco.get), float64(tco.gets)))
	o.set("backend.gets_per_checkout", "count", ratio(float64(tco.gets), nco))
	o.set("backend.get_kib_per_checkout", "KiB", ratio(float64(tco.getBytes)/1024, nco))
	o.set("backend.put_ms", "ms", ratio(ms(tcm.put), float64(tcm.puts)))
	o.set("backend.puts_per_commit", "count", ratio(float64(tcm.puts), ncm))
	o.set("backend.put_kib_per_commit", "KiB", ratio(float64(tcm.putBytes)/1024, ncm))

	// metalog: every append of the traced run, and those commits make.
	appends := t.spanDurations("metalog.append")
	o.set("metalog.append_ms", "ms", ratio(ms(sum(appends)), float64(len(appends))))
	o.set("metalog.append_p95_ms", "ms", percentile(appends, 0.95))
	o.set("metalog.compactions", "count", float64(compactions))
	o.set("metalog.appends_per_commit", "count", ratio(float64(tcm.appends), ncm))
	o.set("metalog.bytes_per_commit", "B", ratio(float64(tcm.appendBytes), ncm))
	o.set("metalog.reopen_s", "s", median(seconds(reopen)))

	// remote: the tier's counters over the same prefix as the store's.
	ts := c.Tier
	o.set("remote.chunk_fetches_per_checkout", "count", ratio(float64(ts.ChunkFetches), n))
	o.set("remote.chunk_hit_ratio", "ratio", ratio(float64(ts.ChunkHits), float64(ts.ChunkHits+ts.ChunkFetches)))
	o.set("remote.kib_fetched_per_checkout", "KiB", ratio(float64(ts.BytesFetched)/1024, n))
	o.set("remote.hedged_share", "ratio", ratio(float64(ts.Hedged), float64(ts.ChunkFetches)))
	o.set("remote.hedge_win_share", "ratio", ratio(float64(ts.HedgeWins), float64(ts.Hedged)))
	o.set("remote.retries", "count", float64(ts.Retries))
	o.set("remote.server_ms", "ms", medianMs(co, func(a opAgg) time.Duration { return a.remote }))
	o.set("remote.dedup_ratio", "ratio", dedup)

	// The cost of tracing itself, on the median checkout.
	p50a, p50b := percentile(pa.checkouts, 0.5), percentile(pb.checkouts, 0.5)
	o.set("trace.overhead_pct", "%", 100*ratio(p50b-p50a, p50a))
	// Tails and throughput of the untraced pass, which spread too far
	// between identical runs on a shared VM to gate on.
	var bytes int64
	for _, n := range pa.sizes {
		bytes += n
	}
	o.set("tail.checkout_p95_ms", "ms", percentile(pa.checkouts, 0.95))
	o.set("tail.checkout_mib_s", "MiB/s", ratio(float64(bytes)/(1<<20), sum(pa.checkouts).Seconds()))
	o.set("tail.commit_p95_ms", "ms", percentile(pa.commits, 0.95))
	o.header["samples"] = map[string]int{
		"checkout_p95_above": beyond(len(pa.checkouts), 0.95),
		"commit_untraced":    len(pa.commits),
		"commit_p95_above":   beyond(len(pa.commits), 0.95),
		"checkout_untraced":  len(pa.checkouts),
		"checkout_traced":    len(co),
		"commit_traced":      len(cm),
		"optimize_traced":    len(opts),
		"metalog_appends":    len(appends),
	}
}
