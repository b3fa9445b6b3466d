package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"versiondb/internal/repo"
	"versiondb/internal/solve"
	"versiondb/internal/store/remote"
	"versiondb/internal/vcs"
)

// writeCSV drops a small payload file and returns its path.
func writeCSV(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCLILocalWorkflow(t *testing.T) {
	dir := t.TempDir()
	work := t.TempDir()
	f1 := writeCSV(t, work, "v1.csv", "a,b\n1,2\n")
	f2 := writeCSV(t, work, "v2.csv", "a,b\n1,2\n3,4\n")
	out := filepath.Join(work, "out.csv")

	steps := [][]string{
		{"-dir", dir, "init"},
		{"-dir", dir, "commit", "-file", f1, "-m", "first"},
		{"-dir", dir, "commit", "-file", f2, "-m", "second"},
		{"-dir", dir, "branch", "-name", "exp", "-from", "0"},
		{"-dir", dir, "commit", "-branch", "exp", "-file", f2, "-m", "exp work"},
		{"-dir", dir, "log"},
		{"-dir", dir, "stats"},
		{"-dir", dir, "optimize", "-hops", "3"},
		{"-dir", dir, "optimize", "-solver", "p4", "-hops", "3"},
		{"-dir", dir, "optimize", "-solver", "mp", "-hops", "3"},
		{"solvers"},
		{"-dir", dir, "checkout", "-v", "1", "-out", out},
		{"-dir", dir, "repack"},
		{"-dir", dir, "checkout", "-v", "2", "-out", out},
	}
	for _, args := range steps {
		if err := run(args); err != nil {
			t.Fatalf("vms %v: %v", args, err)
		}
	}
	got, err := os.ReadFile(out)
	if err != nil || string(got) != "a,b\n1,2\n3,4\n" {
		t.Errorf("checkout produced %q, %v", got, err)
	}
	// Merge via CLI.
	if err := run([]string{"-dir", dir, "merge", "-branch", "master", "-other", "2", "-file", f2, "-m", "merge exp"}); err != nil {
		t.Fatalf("merge: %v", err)
	}
}

func TestCLIErrors(t *testing.T) {
	dir := t.TempDir()
	for name, args := range map[string][]string{
		"no subcommand":    {"-dir", dir},
		"no dir or server": {"log"},
		"unknown cmd":      {"-dir", dir, "frobnicate"},
		"open missing":     {"-dir", filepath.Join(dir, "nope"), "log"},
	} {
		if err := run(args); err == nil {
			t.Errorf("%s: no error for %v", name, args)
		}
	}
	// Bad solver after init.
	if err := run([]string{"-dir", dir, "init"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-dir", dir, "optimize", "-solver", "simplex"}); err == nil {
		t.Errorf("bogus solver accepted")
	}
}

// TestCLISolverRoster drives every registered solver end to end through the
// local optimize path — the acceptance criterion that each is reachable via
// `vms optimize -solver <name>`.
func TestCLISolverRoster(t *testing.T) {
	dir := t.TempDir()
	work := t.TempDir()
	if err := run([]string{"-dir", dir, "init"}); err != nil {
		t.Fatal(err)
	}
	for i, body := range []string{"a,b\n1,2\n", "a,b\n1,2\n3,4\n", "a,b\n1,2\n3,4\n5,6\n", "a,b\n1,9\n3,4\n5,6\n"} {
		f := writeCSV(t, work, "v.csv", body)
		if err := run([]string{"-dir", dir, "commit", "-file", f, "-m", "c"}); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	for _, name := range solve.Names() {
		if err := run([]string{"-dir", dir, "optimize", "-solver", name, "-hops", "3"}); err != nil {
			t.Errorf("optimize -solver %s: %v", name, err)
		}
	}
}

func TestCLIRemoteWorkflow(t *testing.T) {
	repoDir := t.TempDir()
	r, err := repo.Init(repoDir)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(vcs.NewServer(r).Handler())
	defer srv.Close()
	work := t.TempDir()
	f1 := writeCSV(t, work, "v1.csv", "x,y\n9,8\n")
	out := filepath.Join(work, "back.csv")

	steps := [][]string{
		{"-server", srv.URL, "commit", "-file", f1, "-m", "root"},
		{"-server", srv.URL, "branch", "-name", "b1", "-from", "0"},
		{"-server", srv.URL, "commit", "-branch", "b1", "-file", f1, "-m", "again"},
		{"-server", srv.URL, "log"},
		{"-server", srv.URL, "stats"},
		{"-server", srv.URL, "optimize", "-solver", "mst", "-hops", "2"},
		{"-server", srv.URL, "checkout", "-v", "0", "-out", out},
	}
	for _, args := range steps {
		if err := run(args); err != nil {
			t.Fatalf("vms %v: %v", args, err)
		}
	}
	got, err := os.ReadFile(out)
	if err != nil || string(got) != "x,y\n9,8\n" {
		t.Errorf("remote checkout produced %q, %v", got, err)
	}
	if err := run([]string{"-server", srv.URL, "merge", "-branch", "master", "-other", "1", "-file", f1, "-m", "m"}); err != nil {
		t.Fatalf("remote merge: %v", err)
	}
	if err := run([]string{"-server", srv.URL, "frobnicate"}); err == nil {
		t.Errorf("unknown remote subcommand accepted")
	}
}

// TestCLIAsyncOptimizeAndJobs drives the background-job surface: queue an
// async optimize, list jobs, follow one to completion, and exercise the
// cancel and error paths.
func TestCLIAsyncOptimizeAndJobs(t *testing.T) {
	repoDir := t.TempDir()
	r, err := repo.Init(repoDir)
	if err != nil {
		t.Fatal(err)
	}
	s := vcs.NewServer(r)
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	work := t.TempDir()
	for i, body := range []string{"x,y\n1,1\n", "x,y\n1,1\n2,2\n", "x,y\n1,1\n2,2\n3,3\n"} {
		f := writeCSV(t, work, "v.csv", body)
		if err := run([]string{"-server", srv.URL, "commit", "-file", f, "-m", "c"}); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}

	if err := run([]string{"-server", srv.URL, "optimize", "-async", "-solver", "mst", "-hops", "2"}); err != nil {
		t.Fatalf("optimize -async: %v", err)
	}
	// Recover the id via the client (the CLI printed it to stdout).
	c := vcs.NewClient(srv.URL)
	list, err := c.Jobs()
	if err != nil || len(list) != 1 {
		t.Fatalf("Jobs: %v (%d jobs)", err, len(list))
	}
	id := list[0].ID
	for _, args := range [][]string{
		{"-server", srv.URL, "jobs"},
		{"-server", srv.URL, "jobs", "-id", id, "-wait"},
		{"-server", srv.URL, "jobs", "-cancel", id}, // finished: idempotent no-op
	} {
		if err := run(args); err != nil {
			t.Fatalf("vms %v: %v", args, err)
		}
	}
	final, err := c.Job(id)
	if err != nil {
		t.Fatalf("Job: %v", err)
	}
	if final.State != "done" {
		t.Errorf("job state %q after wait+cancel, want done", final.State)
	}

	// Error paths: unknown job id, async without a server, jobs locally.
	if err := run([]string{"-server", srv.URL, "jobs", "-id", "j999"}); err == nil {
		t.Errorf("unknown job id accepted")
	}
	if err := run([]string{"-server", srv.URL, "jobs", "-cancel", "j999"}); err == nil {
		t.Errorf("cancel of unknown job accepted")
	}
	dir := t.TempDir()
	if err := run([]string{"-dir", dir, "init"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-dir", dir, "optimize", "-async"}); err == nil {
		t.Errorf("local optimize -async accepted")
	}
	if err := run([]string{"-dir", dir, "jobs"}); err == nil {
		t.Errorf("local jobs accepted")
	}
}

// TestCLIStatsOldServer: `vms stats` against a server that predates the
// remote-tier stats fields must print the classic sections and exit 0 —
// the remote section is simply omitted, never an error.
func TestCLIStatsOldServer(t *testing.T) {
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/stats" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"versions":3,"branches":1,"materialized":2,"stored_bytes":42,`+
			`"logical_bytes":99,"max_chain_hops":2,"cache_hits":1,"cache_misses":1,`+
			`"cache_hit_ratio":0.5,"cache_evictions":0,"cache_entries":1,"cache_bytes":10,`+
			`"blob_reads":4,"accesses":6,"weighted_phi":12.5}`)
	}))
	defer old.Close()
	if err := run([]string{"-server", old.URL, "stats"}); err != nil {
		t.Fatalf("vms stats against old server: %v", err)
	}
}

// TestCLIRemoteTierWorkflow drives the tiered-remote backend end to end
// through the CLI: init against an object server, commit, checkout, and a
// stats call that surfaces the tier counters.
func TestCLIRemoteTierWorkflow(t *testing.T) {
	objSrv := remote.NewServer()
	objTS := httptest.NewServer(objSrv.Handler())
	defer objTS.Close()
	work := t.TempDir()
	f1 := writeCSV(t, work, "v1.csv", "p,q\n7,7\n")
	f2 := writeCSV(t, work, "v2.csv", "p,q\n7,7\n8,8\n")
	out := filepath.Join(work, "back.csv")

	steps := [][]string{
		{"-remote-url", objTS.URL, "init"},
		{"-remote-url", objTS.URL, "commit", "-file", f1, "-m", "first"},
		{"-remote-url", objTS.URL, "-hedge-after", "-1ns", "commit", "-file", f2, "-m", "second"},
		{"-remote-url", objTS.URL, "-remote-cache-bytes", "-1", "checkout", "-v", "1", "-out", out},
		{"-remote-url", objTS.URL, "stats"},
		{"-remote-url", objTS.URL, "log"},
	}
	for _, args := range steps {
		if err := run(args); err != nil {
			t.Fatalf("vms %v: %v", args, err)
		}
	}
	got, err := os.ReadFile(out)
	if err != nil || string(got) != "p,q\n7,7\n8,8\n" {
		t.Errorf("remote-tier checkout produced %q, %v", got, err)
	}
	if objSrv.NumObjects() == 0 {
		t.Errorf("object server holds no objects after commits")
	}
}
