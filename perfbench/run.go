package main

import (
	"bytes"
	"fmt"
	"time"

	"versiondb/internal/delta"
)

// setupSamples are the figures every set-up of a run contributes.
type setupSamples struct {
	took, reopen, commits, opts []time.Duration
}

func (ss *setupSamples) add(s *setupResult) {
	ss.took = append(ss.took, s.took)
	ss.reopen = append(ss.reopen, s.reopen)
	ss.commits = append(ss.commits, s.commits...)
	ss.opts = append(ss.opts, s.opt.took)
}

// setUpRepeatedly runs b.setups untraced set-ups — set-up time is reported
// as their median — and returns the last one, still open.
func (b *bench) setUpRepeatedly() (*setupResult, setupSamples, error) {
	var ss setupSamples
	var last *setupResult
	for range b.setups {
		if last != nil {
			if err := last.close(); err != nil {
				return nil, ss, err
			}
		}
		s, err := b.setup(nil)
		if err != nil {
			return nil, ss, err
		}
		ss.add(s)
		last = s
	}
	return last, ss, nil
}

// untraced measures the end-to-end metrics.
func (b *bench) untraced() error {
	s, ss, err := b.setUpRepeatedly()
	if err != nil {
		return err
	}
	if !b.spec.commit {
		if b.corrupt {
			s.data.corrupt(b.picker(len(s.data.payloads), b.seed+3)())
		}
		p := b.reads(s.inst, s.data)
		if err := s.close(); err != nil {
			return err
		}
		b.endToEnd(s, ss, p, ss.commits, ss.opts, s.opt)
		return nil
	}
	script, d, err := b.script(s)
	if err != nil {
		return err
	}
	if b.corrupt {
		d.corrupt(len(s.data.payloads))
	}
	p, err := b.cycles(s, script, d, nil)
	if err != nil {
		return err
	}
	var opts []time.Duration
	for _, o := range p.opts {
		opts = append(opts, o.took)
	}
	b.endToEnd(s, ss, p, p.commits, opts, p.last)
	return nil
}

// script closes the set-up, whose stored state every commit cycle starts
// from a copy of, and precomputes the cycle's commits.
func (b *bench) script(s *setupResult) ([]pendingCommit, *data, error) {
	if err := s.close(); err != nil {
		return nil, nil, err
	}
	return commitScript(s.data, s.tips, commitTips, cycleCommits, b.seed+4)
}

// endToEnd reports the metrics a user of the store sees.
func (b *bench) endToEnd(s *setupResult, ss setupSamples, p phase, commits, opts []time.Duration, last optResult) {
	o := b.out
	o.set("setup_s", "s", median(seconds(ss.took)))
	o.set("checkout_p50_ms", "ms", windowedPercentile(p.checkouts, 0.50))
	o.set("commit_p50_ms", "ms", windowedPercentile(commits, 0.50))
	o.set("optimize_s", "s", median(seconds(opts)))
	o.set("stored_bytes_per_user_byte", "ratio", ratio(float64(p.st.StoredBytes), float64(p.st.LogicalBytes)))
	o.set("recreate_bytes_per_user_byte", "ratio", ratio(last.sumR, float64(p.st.LogicalBytes)))
	o.set("live_heap_mib", "MiB", p.heap)
	o.header["samples"] = map[string]int{
		"setup":            len(ss.took),
		"checkout":         len(p.checkouts),
		"checkout_windows": len(windows(len(p.checkouts))),
		"commit":           len(commits),
		"commit_windows":   len(windows(len(commits))),
		"optimize":         len(opts),
	}
	b.out.header["speed"] = map[string]any{
		"ref_kernel_ms": ms(refKernel),
		"kernel_ms":     median(append([]float64(nil), b.speed.all...)),
		"kernel_runs":   len(b.speed.all),
	}
	b.describe(s, p)
}

// describe adds the dataset, the cache budgets and the deterministic
// counters to the run header.
func (b *bench) describe(s *setupResult, p phase) {
	h := b.out.header
	h["dataset"] = map[string]any{
		"scale":              b.spec.scale,
		"versions":           p.st.Versions,
		"logical_mib":        float64(p.st.LogicalBytes) / (1 << 20),
		"cache_budget_bytes": p.cache.BudgetBytes,
		"cache_versions":     p.cache.CapVersions,
		"chunk_cache_bytes":  s.tier.chunkCache,
	}
	h["hit_ratio"] = ratio(float64(p.all.Hits), float64(p.all.Hits+p.all.Misses))
	h["deterministic"] = p.det.deterministic()
}

// traced makes an untraced and a traced pass over the same stored state
// and reports the per-layer metrics. The passes start from the same
// persisted layout, so the store counters of their deterministic prefix
// must agree: a trace wrapper that changed what the repository does (by
// hiding a backend capability, say) shows up as a mismatch. Read
// workloads make one more, traced set-up for the commit and Optimize
// spans, since their passes neither commit nor re-lay out.
func (b *bench) traced() error {
	t := newTracer()
	s, err := b.setup(nil)
	if err != nil {
		return err
	}
	var pa, pb phase
	var opts []optResult
	reopen := []time.Duration{s.reopen}
	dedup, compactions := s.dedup, s.compactions
	d := s.data
	var pairs [][2][]byte
	if !b.spec.commit {
		pa = b.reads(s.inst, d)
		pa.commits = s.commits
		if err := s.inst.close(); err != nil {
			return err
		}
		if s.inst, _, err = open(s.tier, t, false); err != nil {
			return err
		}
		b.configureCache(s.inst.repo, d)
		pb = b.reads(s.inst, d)
		if err := s.close(); err != nil {
			return err
		}
		w, err := b.setup(t)
		if err != nil {
			return err
		}
		if err := w.close(); err != nil {
			return err
		}
		opts = []optResult{w.opt}
		reopen = append(reopen, w.reopen)
		dedup, compactions = w.dedup, w.compactions
		for v := 1; v < d.graph.N; v++ {
			pairs = append(pairs, [2][]byte{d.payloads[d.graph.Parents[v][0]], d.payloads[v]})
		}
	} else {
		var script []pendingCommit
		if script, d, err = b.script(s); err != nil {
			return err
		}
		if pa, err = b.cycles(s, script, d, nil); err != nil {
			return err
		}
		if pb, err = b.cycles(s, script, d, t); err != nil {
			return err
		}
		opts, compactions = pb.opts, pb.compactions
		for _, pc := range script {
			pairs = append(pairs, [2][]byte{d.payloads[pc.parent], pc.payload})
		}
	}
	b.out.check(pa.det.deterministic() == pb.det.deterministic(),
		"traced store counters %+v differ from untraced %+v", pb.det.deterministic(), pa.det.deterministic())
	b.out.check(pa.st.RetrievalFactor == pb.st.RetrievalFactor,
		"traced retrieval factor %v differs from untraced %v", pb.st.RetrievalFactor, pa.st.RetrievalFactor)
	b.perLayer(t, pa, pb, opts, dedup, compactions, reopen)
	b.deltaLayer(pairs)
	factor := 1.0
	if pb.st.RetrievalFactor > 0 {
		factor = pb.st.RetrievalFactor
	}
	if err := b.solveLayer(d, opts[len(opts)-1], factor); err != nil {
		return err
	}
	b.describe(s, pb)
	return nil
}

// deltaLayer times the line differ and the delta applier on the
// workload's own commit pairs, outside the server.
func (b *bench) deltaLayer(pairs [][2][]byte) {
	encs := make([][]byte, len(pairs))
	a0 := allocated()
	start := time.Now()
	for i, p := range pairs {
		encs[i] = delta.Encode(delta.DiffLines(p[0], p[1]), true)
	}
	diff := time.Since(start)
	alloc := allocated() - a0
	// Applying is fast; repeat the pass for a stable rate.
	var out int64
	var apply time.Duration
	outs := make([][]byte, len(pairs))
	for apply < 200*time.Millisecond {
		start := time.Now()
		for i, p := range pairs {
			got, err := delta.ApplyEncoded(encs[i], p[0])
			b.out.check(err == nil, "delta apply: %v", err)
			outs[i] = got
			out += int64(len(got))
		}
		apply += time.Since(start)
	}
	for i, p := range pairs {
		b.out.check(bytes.Equal(outs[i], p[1]), "delta apply of commit pair %d does not rebuild the commit", i)
	}
	n := float64(len(pairs))
	b.out.set("delta.diff_ms_per_commit", "ms", ms(diff)/n)
	b.out.set("delta.diff_alloc_mib_per_commit", "MiB", float64(alloc)/(1<<20)/n)
	b.out.set("delta.apply_mib_s", "MiB/s", float64(out)/(1<<20)/apply.Seconds())
}

// solveLayer compares the final layout with the storage and recreation
// floors of the same instance and asserts the paper's shape: no layout
// stores less than the MST or recreates faster than the SPT, and lmg
// honours its budget.
func (b *bench) solveLayer(d *data, last optResult, factor float64) error {
	mst, spt, err := floors(d, factor)
	if err != nil {
		return fmt.Errorf("floors: %w", err)
	}
	const eps = 1e-9
	storage := last.storage / mst.Storage
	sumr := last.sumR / spt.SumR
	b.out.check(storage >= 1-eps, "layout storage %v is below the MST floor %v", last.storage, mst.Storage)
	b.out.check(sumr >= 1-eps, "layout Σ recreation %v is below the SPT floor %v", last.sumR, spt.SumR)
	b.out.check(last.storage <= budgetFactor*mst.Storage*(1+eps), "lmg storage %v exceeds its budget %v", last.storage, budgetFactor*mst.Storage)
	b.out.set("solve.storage_over_mst", "ratio", storage)
	b.out.set("solve.sumr_over_spt", "ratio", sumr)
	return nil
}
