// Command vms is the client CLI of the prototype version management
// system. It talks to a vmsd server (-server) or operates on a local
// repository directory (-dir).
//
// Subcommands:
//
//	vms -dir D init
//	vms -dir D commit  -branch B -file F -m MSG
//	vms -dir D merge   -branch B -other N -file F -m MSG
//	vms -dir D branch  -name B -from N
//	vms -dir D checkout -v N [-out F]
//	vms -dir D log
//	vms -dir D stats
//	vms -dir D gc
//	vms solvers
//	vms -dir D optimize -solver mst|spt|lmg|mp|last|gith|exact|p4|p5 \
//	                    [-budget B] [-budget-factor X] [-theta T] [-alpha A] \
//	                    [-iters N] [-hops K] [-compress] [-no-auto-weights]
//	vms -server URL optimize -async [...]
//	vms -server URL jobs [-id J [-wait]] [-cancel J]
//
// optimize dispatches through the unified solver registry (-solver
// defaults to lmg); `vms solvers` lists every registered solver with its
// paper problem and constraint. A local optimize honors
// Ctrl-C: interrupting a long solve cancels it cleanly instead of killing
// the process mid-rewrite. Weight-consuming solvers (lmg) pick up access
// telemetry automatically; -no-auto-weights forces the uniform objective.
//
// checkout streams the payload to -out (or stdout) through a fixed-size
// copy buffer — locally from the repository's reader stack, remotely from
// GET /checkout/raw's raw body — so checking out a payload larger than
// client memory works.
//
// stats reports the physical state plus the serving-path telemetry —
// cache occupancy (entries and bytes), hit ratio, evictions, and backend
// blob reads, the numbers a byte-budget tuner watches — the access
// telemetry feeding workload-aware optimization (total recorded accesses,
// the weighted recreation estimate Φ_w, the hottest versions), and —
// against an auto-tuned vmsd — the autotune engine's trigger inputs and
// last outcome.
//
// Against a server, `optimize -async` queues the re-layout as a background
// job and prints its id immediately — the server solves off-lock and swaps
// the layout copy-on-write, so checkouts keep flowing meanwhile. `vms
// jobs` lists jobs, `-id J` shows one (add -wait to block until it
// finishes), and `-cancel J` stops one server-side.
//
// Replace -dir D with -server URL to run against a vmsd instance. The
// global -cache N flag bounds the local checkout LRU in versions
// (0 disables); -cache-bytes B bounds it in payload bytes instead and wins
// over -cache — the byte budget is a hard ceiling, and payloads larger
// than the whole budget bypass admission. -backend mem swaps the
// filesystem store for a fresh in-memory one, which only lives for a
// single invocation and is meant for smoke tests.
//
// -remote-url URL stores blobs in the remote tier instead: an S3-style
// object server holding content-defined chunks, fronted by a byte-budget
// chunk cache (-remote-cache-bytes, 0 = 32 MiB default, negative
// disables) with hedged reads against slow chunk fetches (-hedge-after:
// 0 = adaptive p95, negative disables). `vms stats` then shows the tier's
// chunk, hedge and dedup counters; against an older server without them
// the section is simply omitted.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"text/tabwriter"
	"time"

	"versiondb/internal/bench"
	"versiondb/internal/repo"
	"versiondb/internal/store"
	"versiondb/internal/store/remote"
	"versiondb/internal/vcs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "vms:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	global := flag.NewFlagSet("vms", flag.ContinueOnError)
	dir := global.String("dir", "", "local repository directory")
	server := global.String("server", "", "vmsd server URL (e.g. http://localhost:7420)")
	backend := global.String("backend", "fs", "local storage backend: fs or mem (mem is per-invocation, for smoke tests)")
	cache := global.Int("cache", 0, "checkout LRU capacity in versions (0 disables)")
	cacheBytes := global.Int64("cache-bytes", 0, "checkout LRU budget in payload bytes (0 disables; wins over -cache)")
	remoteURL := global.String("remote-url", "", "store blobs in the remote tier: S3-style object server URL (overrides -backend)")
	hedgeAfter := global.Duration("hedge-after", 0, "remote tier: hedge a slow chunk fetch after this delay (0 = adaptive p95, negative disables)")
	remoteCacheBytes := global.Int64("remote-cache-bytes", 0, "remote tier: chunk cache budget in bytes (0 = 32 MiB default, negative disables)")
	if err := global.Parse(args); err != nil {
		return err
	}
	rest := global.Args()
	if len(rest) == 0 {
		return fmt.Errorf("missing subcommand (init, commit, merge, branch, checkout, log, stats, gc, solvers, optimize, jobs)")
	}
	cmd, rest := rest[0], rest[1:]
	if cmd == "solvers" {
		bench.FormatSolvers(os.Stdout)
		return nil
	}
	if *server != "" {
		return runRemote(vcs.NewClient(*server), cmd, rest)
	}
	if *remoteURL != "" {
		*backend = "remote"
	} else if *backend != "fs" && *backend != "mem" {
		return fmt.Errorf("unknown backend %q (want fs or mem, or -remote-url)", *backend)
	}
	if *dir == "" && *backend == "fs" {
		return fmt.Errorf("one of -dir or -server is required")
	}
	tier := remote.Options{CacheBytes: *remoteCacheBytes, HedgeAfter: *hedgeAfter}
	return runLocal(*dir, *backend, *remoteURL, tier, *cache, *cacheBytes, cmd, rest)
}

func runLocal(dir, backend, remoteURL string, tier remote.Options, cache int, cacheBytes int64, cmd string, args []string) error {
	openRepo := func() (*repo.Repo, error) {
		switch backend {
		case "mem":
			return repo.InitBackend(store.NewMemStore())
		case "remote":
			return repo.OpenBackend(remote.New(remoteURL, tier))
		}
		return repo.Open(dir)
	}
	if cmd == "init" {
		switch backend {
		case "mem":
			fmt.Println("initialized in-memory repository (contents die with this process)")
			return nil
		case "remote":
			if _, err := repo.InitBackend(remote.New(remoteURL, tier)); err != nil {
				return err
			}
			fmt.Println("initialized remote-tier repository at", remoteURL)
			return nil
		}
		if _, err := repo.Init(dir); err != nil {
			return err
		}
		fmt.Println("initialized empty repository at", dir)
		return nil
	}
	r, err := openRepo()
	if err != nil {
		return err
	}
	if cacheBytes > 0 {
		r.EnableCacheBytes(cacheBytes)
	} else {
		r.EnableCache(cache)
	}
	switch cmd {
	case "commit", "merge":
		fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
		branch := fs.String("branch", repo.DefaultBranch, "branch")
		file := fs.String("file", "", "payload file")
		msg := fs.String("m", "", "commit message")
		other := fs.Int("other", -1, "merge source version (merge only)")
		if err := fs.Parse(args); err != nil {
			return err
		}
		payload, err := os.ReadFile(*file)
		if err != nil {
			return err
		}
		var id int
		if cmd == "merge" {
			id, err = r.Merge(*branch, *other, payload, *msg)
		} else {
			id, err = r.Commit(*branch, payload, *msg)
		}
		if err != nil {
			return err
		}
		fmt.Printf("committed version %d on %s\n", id, *branch)
	case "branch":
		fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
		name := fs.String("name", "", "new branch name")
		from := fs.Int("from", -1, "source version")
		if err := fs.Parse(args); err != nil {
			return err
		}
		if err := r.Branch(*name, *from); err != nil {
			return err
		}
		fmt.Printf("branch %s created at version %d\n", *name, *from)
	case "checkout":
		fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
		v := fs.Int("v", -1, "version to check out")
		out := fs.String("out", "", "output file (default stdout)")
		if err := fs.Parse(args); err != nil {
			return err
		}
		rc, _, err := r.CheckoutStream(*v)
		if err != nil {
			return err
		}
		return writeStream(rc, *out)
	case "log":
		printLog(r.Log())
	case "repack":
		path, err := r.Repack()
		if err != nil {
			return err
		}
		fmt.Println("packed loose objects into", path)
	case "gc":
		res, err := r.GC()
		if err != nil {
			return err
		}
		fmt.Printf("gc: scanned %d blobs, %d live, collected %d orphans\n",
			res.Scanned, res.Live, res.Collected)
	case "stats":
		st := r.Stats()
		fmt.Printf("versions:       %d\n", st.Versions)
		fmt.Printf("branches:       %d\n", st.Branches)
		fmt.Printf("materialized:   %d\n", st.Materialized)
		fmt.Printf("stored bytes:   %d\n", st.StoredBytes)
		fmt.Printf("logical bytes:  %d\n", st.LogicalBytes)
		fmt.Printf("max chain hops: %d\n", st.MaxChainHops)
		fmt.Printf("cache:          %d entries, %d bytes", st.CacheEntries, st.CacheBytes)
		if st.CacheBudgetBytes > 0 {
			fmt.Printf(" (budget %d)", st.CacheBudgetBytes)
		}
		fmt.Printf(", hit ratio %s, %d evictions\n", hitRatio(st.CacheHits, st.CacheMisses), st.CacheEvictions)
		fmt.Printf("blob reads:     %d\n", st.BlobReads)
		fmt.Printf("accesses:       %d\n", st.Accesses)
		fmt.Printf("weighted Φ:     %.0f\n", r.WeightedPhi())
		if st.Log.Appends > 0 || st.Log.Records > 0 {
			fmt.Printf("meta log:       %d records, %d bytes, %d compactions, %d replayed",
				st.Log.Records, st.Log.Bytes, st.Log.Compactions, st.Log.Replayed)
			if st.Log.TornTails > 0 {
				fmt.Printf(", %d torn tails repaired", st.Log.TornTails)
			}
			fmt.Println()
		}
		if st.GCRuns > 0 {
			fmt.Printf("gc:             %d runs, %d blobs collected\n", st.GCRuns, st.GCCollected)
		}
		if rs := st.Remote; rs != nil {
			fmt.Printf("remote tier:    ×%.1f retrieval cost, %d chunks stored, %d deduped (dedup ratio %.3f)\n",
				st.RetrievalFactor, rs.ChunksStored, rs.ChunksDeduped, rs.DedupRatio())
			fmt.Printf("                %d fetches, %d near hits (hit ratio %.3f), hedged %d (%d wins), %d retries\n",
				rs.ChunkFetches, rs.ChunkHits, rs.ChunkHitRatio(), rs.Hedged, rs.HedgeWins, rs.Retries)
		}
		if hot := r.HotVersions(5); len(hot) > 0 {
			fmt.Printf("hot versions:  ")
			for _, h := range hot {
				fmt.Printf(" v%d(%.1f)", h.Version, h.Count)
			}
			fmt.Println()
		}
	case "jobs":
		return fmt.Errorf("jobs requires -server (background jobs live in a vmsd instance)")
	case "optimize":
		wire, async, err := parseOptimizeFlags(args)
		if err != nil {
			return err
		}
		if async {
			return fmt.Errorf("optimize -async requires -server (a local process would just wait for its own job)")
		}
		opts, err := wire.Options()
		if err != nil {
			return err
		}
		// Ctrl-C cancels the solve instead of killing the process mid-way.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		res, err := r.Optimize(ctx, opts)
		if err != nil {
			return err
		}
		fmt.Printf("optimized with %s (%s): storage=%.0f ΣR=%.0f maxR=%.0f\n",
			res.Solver, res.Algorithm, res.Storage, res.SumR, res.MaxR)
	default:
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
	return nil
}

func runRemote(c *vcs.Client, cmd string, args []string) error {
	switch cmd {
	case "commit", "merge":
		fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
		branch := fs.String("branch", repo.DefaultBranch, "branch")
		file := fs.String("file", "", "payload file")
		msg := fs.String("m", "", "commit message")
		other := fs.Int("other", -1, "merge source version (merge only)")
		if err := fs.Parse(args); err != nil {
			return err
		}
		payload, err := os.ReadFile(*file)
		if err != nil {
			return err
		}
		var id int
		if cmd == "merge" {
			id, err = c.Merge(*branch, *other, payload, *msg)
		} else {
			id, err = c.Commit(*branch, payload, *msg)
		}
		if err != nil {
			return err
		}
		fmt.Printf("committed version %d on %s\n", id, *branch)
	case "branch":
		fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
		name := fs.String("name", "", "new branch name")
		from := fs.Int("from", -1, "source version")
		if err := fs.Parse(args); err != nil {
			return err
		}
		return c.Branch(*name, *from)
	case "checkout":
		fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
		v := fs.Int("v", -1, "version to check out")
		out := fs.String("out", "", "output file (default stdout)")
		if err := fs.Parse(args); err != nil {
			return err
		}
		rc, _, err := c.CheckoutStream(*v)
		if err != nil {
			return err
		}
		return writeStream(rc, *out)
	case "log":
		versions, err := c.Log()
		if err != nil {
			return err
		}
		printLog(versions)
	case "stats":
		st, err := c.Stats()
		if err != nil {
			return err
		}
		fmt.Printf("versions=%d branches=%d materialized=%d stored=%d logical=%d maxChain=%d\n",
			st.Versions, st.Branches, st.Materialized, st.StoredBytes, st.LogicalBytes, st.MaxChainHops)
		fmt.Printf("cache: entries=%d bytes=%d", st.CacheEntries, st.CacheBytes)
		if st.CacheBudgetBytes > 0 {
			fmt.Printf(" budget=%d", st.CacheBudgetBytes)
		}
		fmt.Printf(" hitRatio=%.3f evictions=%d blobReads=%d\n", st.CacheHitRatio, st.CacheEvictions, st.BlobReads)
		fmt.Printf("accesses=%d weightedΦ=%.0f\n", st.Accesses, st.WeightedPhi)
		if len(st.Hot) > 0 {
			fmt.Printf("hot:")
			for _, h := range st.Hot {
				fmt.Printf(" v%d(%.1f)", h.ID, h.Count)
			}
			fmt.Println()
		}
		if st.LogAppends > 0 || st.LogRecords > 0 {
			fmt.Printf("metalog: records=%d bytes=%d compactions=%d replayed=%d tornTails=%d\n",
				st.LogRecords, st.LogBytes, st.LogCompactions, st.LogReplayed, st.LogTornTails)
		}
		if st.GCRuns > 0 {
			fmt.Printf("gc: runs=%d collected=%d\n", st.GCRuns, st.GCCollected)
		}
		// Older servers omit the remote-tier fields entirely; the nil
		// section just doesn't print — never an error.
		if rs := st.Remote; rs != nil {
			fmt.Printf("remote: factor=%.1f chunkFetches=%d chunkHits=%d hitRatio=%.3f hedged=%d hedgeWins=%d retries=%d\n",
				st.RetrievalFactor, rs.ChunkFetches, rs.ChunkHits, rs.ChunkHitRatio, rs.Hedged, rs.HedgeWins, rs.Retries)
			fmt.Printf("remote: chunksStored=%d chunksDeduped=%d bytesStored=%d bytesDeduped=%d dedupRatio=%.3f bytesFetched=%d\n",
				rs.ChunksStored, rs.ChunksDeduped, rs.BytesStored, rs.BytesDeduped, rs.DedupRatio, rs.BytesFetched)
		}
		if a := st.Autotune; a != nil {
			fmt.Printf("autotune: solver=%s jobs=%d debounced=%d commits=%d drift=%.3f inflight=%v\n",
				a.Solver, a.AutoJobs, a.Debounced, a.CommitsSince, a.Drift, a.InFlight)
			if a.LastJobID != "" {
				fmt.Printf("autotune last: job=%s trigger=%s outcome=%s %s\n",
					a.LastJobID, a.LastTrigger, a.LastOutcome, a.LastError)
			}
		}
		// Primaries omit the replica section; it only prints when the
		// server is a read-only follower.
		if rep := st.Replica; rep != nil {
			fmt.Printf("replica: applied=%d lag=%d lastApplyUnix=%d\n",
				rep.AppliedOffset, rep.LagRecords, rep.LastApplyUnix)
		}
	case "optimize":
		wire, async, err := parseOptimizeFlags(args)
		if err != nil {
			return err
		}
		if async {
			id, err := c.OptimizeAsync(wire)
			if err != nil {
				return err
			}
			fmt.Printf("optimize queued as job %s (vms jobs -id %s -wait to follow, -cancel %s to stop)\n", id, id, id)
			return nil
		}
		resp, err := c.Optimize(wire)
		if err != nil {
			return err
		}
		fmt.Printf("optimized with %s (%s): storage=%.0f ΣR=%.0f maxR=%.0f stored=%d\n",
			resp.Solver, resp.Algorithm, resp.Storage, resp.SumR, resp.MaxR, resp.StoredBytes)
	case "gc":
		res, err := c.GC()
		if err != nil {
			return err
		}
		fmt.Printf("gc: scanned %d blobs, %d live, collected %d orphans\n",
			res.Scanned, res.Live, res.Collected)
	case "jobs":
		fs := flag.NewFlagSet("jobs", flag.ContinueOnError)
		id := fs.String("id", "", "show a single job")
		cancel := fs.String("cancel", "", "cancel the job with this id")
		wait := fs.Bool("wait", false, "with -id, block until the job reaches a terminal state")
		if err := fs.Parse(args); err != nil {
			return err
		}
		switch {
		case *cancel != "":
			info, err := c.CancelJob(*cancel)
			if err != nil {
				return err
			}
			fmt.Printf("job %s: %s\n", info.ID, info.State)
		case *id != "":
			var info *vcs.JobInfo
			var err error
			if *wait {
				info, err = c.JobWait(*id)
			} else {
				info, err = c.Job(*id)
			}
			if err != nil {
				return err
			}
			printJob(info)
		default:
			list, err := c.Jobs()
			if err != nil {
				return err
			}
			tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
			fmt.Fprintln(tw, "id\tstate\tsolver\tphase\tdetail")
			for i := range list {
				j := &list[i]
				detail := j.Error
				if j.Result != nil {
					detail = fmt.Sprintf("storage=%.0f ΣR=%.0f", j.Result.Storage, j.Result.SumR)
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n", j.ID, j.State, j.Solver, j.Phase, detail)
			}
			tw.Flush()
		}
	default:
		return fmt.Errorf("unknown subcommand %q (remote)", cmd)
	}
	return nil
}

// printJob renders one job in detail.
func printJob(j *vcs.JobInfo) {
	fmt.Printf("job %s: %s (solver %s)\n", j.ID, j.State, j.Solver)
	if j.Phase != "" {
		fmt.Printf("  phase:    %s\n", j.Phase)
	}
	fmt.Printf("  created:  %s\n", j.Created.Format(time.RFC3339))
	if !j.Started.IsZero() {
		fmt.Printf("  started:  %s\n", j.Started.Format(time.RFC3339))
	}
	if !j.Finished.IsZero() {
		fmt.Printf("  finished: %s\n", j.Finished.Format(time.RFC3339))
	}
	if j.Result != nil {
		fmt.Printf("  result:   %s (%s) storage=%.0f ΣR=%.0f maxR=%.0f stored=%d\n",
			j.Result.Solver, j.Result.Algorithm, j.Result.Storage, j.Result.SumR, j.Result.MaxR, j.Result.StoredBytes)
	}
	if j.Error != "" {
		fmt.Printf("  error:    %s\n", j.Error)
	}
}

// parseOptimizeFlags parses the shared optimize flag set into the wire
// request both the local and remote paths consume, plus the -async flag
// only the remote path honors.
func parseOptimizeFlags(args []string) (vcs.OptimizeRequest, bool, error) {
	fs := flag.NewFlagSet("optimize", flag.ContinueOnError)
	solver := fs.String("solver", "lmg", "registry solver name (see `vms solvers`)")
	budget := fs.Float64("budget", 0, "storage budget β (lmg, p4); 0 derives from -budget-factor")
	bf := fs.Float64("budget-factor", 1.25, "default budget as a multiple of minimum storage")
	theta := fs.Float64("theta", 0, "recreation bound θ (mp/exact: max Φ, p5: Σ Φ)")
	alpha := fs.Float64("alpha", 0, "LAST stretch bound α (> 1)")
	iters := fs.Int("iters", 0, "binary-search iterations for p4/p5 (0 = 40)")
	hops := fs.Int("hops", 5, "delta revelation radius")
	compress := fs.Bool("compress", false, "compress stored blobs")
	noWeights := fs.Bool("no-auto-weights", false, "ignore access telemetry: run weight-consuming solvers with uniform weights")
	async := fs.Bool("async", false, "queue as a background job on the server and return its id (remote only)")
	if err := fs.Parse(args); err != nil {
		return vcs.OptimizeRequest{}, false, err
	}
	return vcs.OptimizeRequest{
		Solver: *solver, Budget: *budget, BudgetFactor: *bf,
		Theta: *theta, Alpha: *alpha, Iters: *iters, RevealHops: *hops, Compress: *compress,
		NoAutoWeights: *noWeights,
	}, *async, nil
}

// writeStream drains a checkout stream to the -out file (or stdout),
// copying through a fixed buffer so the payload never sits in process
// memory whole — the CLI analogue of the server's raw body path. The
// partial output file of a failed copy is left in place for inspection,
// matching what a failed os.WriteFile could also leave behind.
func writeStream(rc io.ReadCloser, out string) error {
	defer rc.Close()
	dst := io.Writer(os.Stdout)
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	_, err := io.Copy(dst, rc)
	return err
}

// hitRatio renders hits/(hits+misses) for humans, "n/a" before any lookup.
func hitRatio(hits, misses uint64) string {
	if hits+misses == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.3f", store.CacheStats{Hits: hits, Misses: misses}.HitRatio())
}

func printLog(versions []repo.VersionInfo) {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "id\tbranch\tparents\tsize\tmessage")
	for _, v := range versions {
		fmt.Fprintf(tw, "%d\t%s\t%v\t%d\t%s\n", v.ID, v.Branch, v.Parents, v.Size, v.Message)
	}
	tw.Flush()
}
